// Package regbank models the register banks of §7: a small number of banks
// (4–8) of modest fixed size (~16 words), each able to shadow the first
// words of a local frame. One additional role rotates among the banks: the
// evaluation stack. On a call the bank holding the stack is renamed to be
// the shadower of the callee's frame, so the arguments appear as the first
// locals with no data movement (§7.2, Figure 3); a fresh bank becomes the
// stack.
//
// The package is pure bookkeeping — the machine moves the actual words and
// charges memory references on flush and reload, keeping the cost model in
// one place.
package regbank

// Owner values for banks not shadowing a frame.
const (
	OwnerFree  = -1
	OwnerStack = -2
)

// Bank is one register bank.
type Bank struct {
	Words []uint16
	Dirty uint64 // bit i set: word i written since assignment/reload
	Owner int32  // frame pointer, OwnerFree, or OwnerStack
	age   uint64
}

// File is the set of banks.
type File struct {
	banks []Bank
	clock uint64
	// victim holds Acquire's copy of an evicted bank's words, and released
	// ReleaseAll's result: buffers the File owns and reuses, so spilling
	// banks allocates nothing.
	victim   []uint16
	released []Bank
}

// New returns a file of n banks of the given word size. n=0 disables
// banking (every lookup misses).
func New(n, words int) *File {
	if words > 64 {
		panic("regbank: banks larger than 64 words not supported (dirty mask)")
	}
	f := &File{banks: make([]Bank, n), victim: make([]uint16, words)}
	for i := range f.banks {
		f.banks[i] = Bank{Words: make([]uint16, words), Owner: OwnerFree}
	}
	return f
}

// NumBanks reports the number of banks.
func (f *File) NumBanks() int { return len(f.banks) }

// BankWords reports the words per bank (0 when disabled).
func (f *File) BankWords() int {
	if len(f.banks) == 0 {
		return 0
	}
	return len(f.banks[0].Words)
}

// Get returns bank i.
func (f *File) Get(i int) *Bank { return &f.banks[i] }

// Lookup finds the bank shadowing frame lf, or -1.
func (f *File) Lookup(lf uint16) int {
	for i := range f.banks {
		if f.banks[i].Owner == int32(lf) {
			return i
		}
	}
	return -1
}

// StackBank returns the bank currently holding the evaluation stack, or -1.
func (f *File) StackBank() int {
	for i := range f.banks {
		if f.banks[i].Owner == OwnerStack {
			return i
		}
	}
	return -1
}

// Acquire returns a bank for a new owner. It prefers a free bank; if none
// is free it selects the oldest frame-owning bank as the victim and
// returns needFlush=true — the machine must write the victim's dirty words
// to its frame before reassignment (§7.1: "the contents of the oldest bank
// is written out into the frame"). The victim's words are a copy in a
// buffer the File owns, valid until the next Acquire. The stack bank is
// never chosen as a victim. Returns bank=-1 if banking is disabled or every
// bank is the stack.
func (f *File) Acquire(owner int32) (bank int, victim Bank, needFlush bool) {
	if len(f.banks) == 0 {
		return -1, Bank{}, false
	}
	for i := range f.banks {
		if f.banks[i].Owner == OwnerFree {
			f.assign(i, owner)
			return i, Bank{}, false
		}
	}
	oldest := -1
	for i := range f.banks {
		if f.banks[i].Owner == OwnerStack {
			continue
		}
		if oldest == -1 || f.banks[i].age < f.banks[oldest].age {
			oldest = i
		}
	}
	if oldest == -1 {
		return -1, Bank{}, false
	}
	v := &f.banks[oldest]
	victim = Bank{Words: f.victim, Dirty: v.Dirty, Owner: v.Owner}
	copy(victim.Words, v.Words)
	f.assign(oldest, owner)
	return oldest, victim, true
}

func (f *File) assign(i int, owner int32) {
	f.clock++
	b := &f.banks[i]
	b.Owner = owner
	b.Dirty = 0
	b.age = f.clock
	for j := range b.Words {
		b.Words[j] = 0
	}
}

// Rename transfers bank i to a new owner without touching its contents —
// the §7.2 free argument passing. The dirty mask is preserved: the words
// written while the bank was the stack must reach the new frame if it is
// ever flushed.
func (f *File) Rename(i int, owner int32) {
	f.clock++
	f.banks[i].Owner = owner
	f.banks[i].age = f.clock
}

// Touch refreshes bank i's age (it shadows the running frame).
func (f *File) Touch(i int) {
	f.clock++
	f.banks[i].age = f.clock
}

// Release frees bank i; its contents are unimportant and never need to be
// saved (§7.1: a freed frame's bank is simply marked free).
func (f *File) Release(i int) {
	f.banks[i].Owner = OwnerFree
	f.banks[i].Dirty = 0
}

// Read returns word off of bank i.
func (f *File) Read(i, off int) uint16 { return f.banks[i].Words[off] }

// Write sets word off of bank i and marks it dirty.
func (f *File) Write(i, off int, v uint16) {
	f.banks[i].Words[off] = v
	f.banks[i].Dirty |= 1 << uint(off)
}

// Load fills bank i from frame contents without marking dirty (reload on
// underflow).
func (f *File) Load(i int, words []uint16) {
	copy(f.banks[i].Words, words)
	f.banks[i].Dirty = 0
}

// Reset returns every bank to its power-on state: free, clean, zeroed.
// Used when a machine is rebooted from its image snapshot; unlike
// ReleaseAll nothing is returned for flushing, because the store is being
// restored wholesale.
func (f *File) Reset() {
	f.clock = 0
	for i := range f.banks {
		b := &f.banks[i]
		b.Owner = OwnerFree
		b.Dirty = 0
		b.age = 0
		for j := range b.Words {
			b.Words[j] = 0
		}
	}
}

// BankState is one bank's captured state — contents, dirty mask, owner and
// the age that drives victim selection.
type BankState struct {
	Words []uint16
	Dirty uint64
	Owner int32
	Age   uint64
}

// State is a deep copy of the whole file: every bank plus the clock. A
// machine snapshot captures it raw — flushing instead would charge memory
// references the uninterrupted run never pays — and restoring it (ages and
// clock included) makes the resumed machine evict exactly the banks the
// uninterrupted run would have.
type State struct {
	Banks []BankState
	Clock uint64
}

// State captures the file (deep copy).
func (f *File) State() State {
	s := State{Clock: f.clock}
	if len(f.banks) > 0 {
		s.Banks = make([]BankState, len(f.banks))
		for i := range f.banks {
			b := &f.banks[i]
			s.Banks[i] = BankState{
				Words: append([]uint16(nil), b.Words...),
				Dirty: b.Dirty,
				Owner: b.Owner,
				Age:   b.age,
			}
		}
	}
	return s
}

// Restore puts the file back to s (deep copy). The capture must come from a
// file of the same shape — same bank count and words per bank; a mismatch
// is an invariant violation (the caller compares configurations first).
func (f *File) Restore(s State) {
	if len(s.Banks) != len(f.banks) {
		panic("regbank: Restore with mismatched bank count")
	}
	f.clock = s.Clock
	for i := range f.banks {
		b := &f.banks[i]
		if len(s.Banks[i].Words) != len(b.Words) {
			panic("regbank: Restore with mismatched bank size")
		}
		copy(b.Words, s.Banks[i].Words)
		b.Dirty = s.Banks[i].Dirty
		b.Owner = s.Banks[i].Owner
		b.age = s.Banks[i].Age
	}
}

// ReleaseAll frees every bank, returning the frame-owned ones so the
// machine can flush them (process switch / trap fallback: "all the banks
// are flushed into storage"). The result lives in a buffer the File owns
// and each entry's Words is the freed bank's own storage, so it is valid
// until the next call that assigns or writes a bank (Acquire, Write,
// Load, Reset, Restore) or the next ReleaseAll.
func (f *File) ReleaseAll() []Bank {
	out := f.released[:0]
	for i := range f.banks {
		b := &f.banks[i]
		if b.Owner >= 0 {
			out = append(out, Bank{Words: b.Words, Dirty: b.Dirty, Owner: b.Owner})
		}
		b.Owner = OwnerFree
		b.Dirty = 0
	}
	f.released = out
	return out
}
