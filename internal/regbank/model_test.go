package regbank

import (
	"math/rand"
	"reflect"
	"testing"
)

// refFile is the reference model of the bank file: the original two-scan
// implementation, which searches for a free bank and then for the oldest
// frame-owned one, and hands the victim's words out as a copy.
type refFile struct {
	banks []refBank
	clock uint64
}

type refBank struct {
	words []uint16
	dirty uint64
	owner int32
	age   uint64
}

func newRef(n, words int) *refFile {
	r := &refFile{banks: make([]refBank, n)}
	for i := range r.banks {
		r.banks[i] = refBank{words: make([]uint16, words), owner: OwnerFree}
	}
	return r
}

func (r *refFile) acquire(owner int32) (bank int, victim Bank, flushed bool) {
	if len(r.banks) == 0 {
		return -1, Bank{}, false
	}
	for i := range r.banks {
		if r.banks[i].owner == OwnerFree {
			r.assign(i, owner)
			return i, Bank{}, false
		}
	}
	oldest := -1
	for i := range r.banks {
		if r.banks[i].owner == OwnerStack {
			continue
		}
		if oldest == -1 || r.banks[i].age < r.banks[oldest].age {
			oldest = i
		}
	}
	if oldest == -1 {
		return -1, Bank{}, false
	}
	v := &r.banks[oldest]
	victim = Bank{Words: append([]uint16(nil), v.words...), Dirty: v.dirty, Owner: v.owner}
	r.assign(oldest, owner)
	return oldest, victim, true
}

func (r *refFile) assign(i int, owner int32) {
	r.clock++
	b := &r.banks[i]
	b.owner, b.dirty, b.age = owner, 0, r.clock
	for j := range b.words {
		b.words[j] = 0
	}
}

func (r *refFile) rename(i int, owner int32) {
	r.clock++
	r.banks[i].owner, r.banks[i].age = owner, r.clock
}

func (r *refFile) release(i int) {
	r.banks[i].owner, r.banks[i].dirty = OwnerFree, 0
}

func (r *refFile) write(i, off int, v uint16) {
	r.banks[i].words[off] = v
	r.banks[i].dirty |= 1 << uint(off)
}

func (r *refFile) load(i int, words []uint16) {
	copy(r.banks[i].words, words)
	r.banks[i].dirty = 0
}

func (r *refFile) releaseAll() []Bank {
	var out []Bank
	for i := range r.banks {
		b := &r.banks[i]
		if b.owner >= 0 {
			out = append(out, Bank{Words: append([]uint16(nil), b.words...), Dirty: b.dirty, Owner: b.owner})
		}
		b.owner, b.dirty = OwnerFree, 0
	}
	return out
}

func (r *refFile) reset() {
	r.clock = 0
	for i := range r.banks {
		b := &r.banks[i]
		b.owner, b.dirty, b.age = OwnerFree, 0, 0
		for j := range b.words {
			b.words[j] = 0
		}
	}
}

func (r *refFile) state() State {
	s := State{Clock: r.clock}
	if len(r.banks) > 0 {
		s.Banks = make([]BankState, len(r.banks))
		for i, b := range r.banks {
			s.Banks[i] = BankState{Words: append([]uint16(nil), b.words...), Dirty: b.dirty, Owner: b.owner, Age: b.age}
		}
	}
	return s
}

func (r *refFile) restore(s State) {
	r.clock = s.Clock
	for i := range r.banks {
		b := &r.banks[i]
		copy(b.words, s.Banks[i].Words)
		b.dirty, b.owner, b.age = s.Banks[i].Dirty, s.Banks[i].Owner, s.Banks[i].Age
	}
}

// driveBankFile runs one operation per byte pair of ops against a File of
// n banks of the given size and the reference model, failing on the first
// divergence: the bank Acquire takes, the owner, dirty mask and words of a
// spilled victim (read from the victim's own storage before Acquire, as
// the machine flushes it), ReleaseAll's banks, Lookup, StackBank, and the
// whole State after every operation.
func driveBankFile(t *testing.T, n, words int, ops []byte) {
	t.Helper()
	f, r := New(n, words), newRef(n, words)
	var saved []State
	owner := func(x byte) int32 {
		if x%8 == 0 {
			return OwnerStack
		}
		return int32(x%24) * 4 // a handful of frames, so owners recur
	}
	for k := 0; k+1 < len(ops); k += 2 {
		op, x := ops[k]%9, ops[k+1]
		bank := 0
		if n > 0 {
			bank = int(x) % n
		}
		switch op {
		case 0, 1: // Acquire (twice as likely: it is the operation under test)
			o := owner(x)
			v := f.Victim()
			var spilled Bank
			if v >= 0 && f.Get(v).Owner >= 0 {
				b := f.Get(v)
				spilled = Bank{Words: append([]uint16(nil), b.Words...), Dirty: b.Dirty, Owner: b.Owner}
			}
			got := f.Acquire(o)
			want, victim, flushed := r.acquire(o)
			if got != want || v != want {
				t.Fatalf("op %d: Acquire(%d) took bank %d (Victim said %d), reference %d", k/2, o, got, v, want)
			}
			if !flushed {
				victim = Bank{}
			}
			if !reflect.DeepEqual(spilled, victim) {
				t.Fatalf("op %d: Acquire(%d) spilled %+v, reference %+v", k/2, o, spilled, victim)
			}
		case 2: // Rename
			if n == 0 {
				continue
			}
			o := owner(x / 3)
			f.Rename(bank, o)
			r.rename(bank, o)
		case 3: // Write
			if n == 0 {
				continue
			}
			off := int(x/3) % words
			v := uint16(x)*257 + uint16(k)
			f.Write(bank, off, v)
			r.write(bank, off, v)
		case 4: // Release
			if n == 0 {
				continue
			}
			f.Release(bank)
			r.release(bank)
		case 5: // ReleaseAll
			got, want := f.ReleaseAll(), r.releaseAll()
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("op %d: ReleaseAll returned %+v, reference %+v", k/2, got, want)
			}
		case 6: // Reset
			f.Reset()
			r.reset()
		case 7: // Load
			if n == 0 {
				continue
			}
			w := make([]uint16, words)
			for i := range w {
				w[i] = uint16(x) + uint16(i)
			}
			f.Load(bank, w)
			r.load(bank, w)
		case 8: // capture, or restore an earlier capture
			if x%2 == 0 || len(saved) == 0 {
				saved = append(saved, r.state())
				continue
			}
			s := saved[int(x/2)%len(saved)]
			f.Restore(s)
			r.restore(s)
		}
		if got, want := f.State(), r.state(); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d (kind %d): state %+v, reference %+v", k/2, op, got, want)
		}
		if got, want := f.StackBank(), refStackBank(r); got != want {
			t.Fatalf("op %d: StackBank %d, reference %d", k/2, got, want)
		}
		for o := int32(0); o < 24*4; o += 4 {
			if got, want := f.Lookup(uint16(o)), refLookup(r, o); got != want {
				t.Fatalf("op %d: Lookup(%d) = %d, reference %d", k/2, o, got, want)
			}
		}
	}
}

func refStackBank(r *refFile) int { return refLookup(r, OwnerStack) }

func refLookup(r *refFile, owner int32) int {
	for i := range r.banks {
		if r.banks[i].owner == owner {
			return i
		}
	}
	return -1
}

// TestBankFileMatchesReference drives random operation sequences over
// every bank count from 0 to 9 and two bank sizes.
func TestBankFileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(ops)
		driveBankFile(t, trial%10, []int{4, 16}[trial%2], ops)
	}
}

// FuzzBankFile is the coverage-guided form of the model test: the first
// two bytes pick the bank count (0–12) and size (4–19 words), the rest
// are operations.
func FuzzBankFile(f *testing.F) {
	f.Add([]byte{8, 12, 0, 1, 0, 9, 0, 17, 2, 8, 0, 25, 0, 33, 0, 41, 5, 0})
	f.Add([]byte{2, 0, 0, 8, 0, 1, 2, 3, 0, 2, 0, 3, 8, 0, 0, 4, 8, 1, 0, 5})
	f.Add([]byte{3, 12, 0, 0, 3, 7, 0, 1, 1, 2, 4, 1, 0, 3, 6, 0, 0, 9, 8, 2, 0, 10, 8, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		driveBankFile(t, int(data[0])%13, 4+int(data[1])%16, data[2:])
	})
}
