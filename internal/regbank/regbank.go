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
//
// Victim, Acquire, Rename, Release, Read and Write take constant time in
// the number of banks: a mask of free banks and a recency list of the
// frame-owned banks, both derived from the owners and ages, name the bank
// the next Acquire takes without a scan. Lookup still searches, over a
// packed copy of the owners; the machine keeps the running frame's bank in
// a register of its own.
package regbank

import "math/bits"

// Owner values for banks not shadowing a frame.
const (
	OwnerFree  = -1
	OwnerStack = -2
)

// Bank is one register bank. Its fields are read-only outside the
// package, except that a caller may change Words and Dirty in place (the
// machine's one-copy argument delivery); ownership changes only through
// the File's methods, which keep the derived free mask and recency list.
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
	// free has bit i set when bank i is free. prev and next link the
	// frame-owned banks in ascending age through the sentinel at index
	// len(banks): next[sentinel] is the least recently assigned or renamed
	// frame-owned bank, the overflow victim. These and owners below are
	// derived from the banks' owners and ages, so Reset, Restore and
	// ReleaseAll rebuild them.
	free       uint64
	prev, next []int
	// owners mirrors banks[i].Owner, packed so that Lookup scans one
	// cache line instead of the banks themselves.
	owners []int32
	// released holds ReleaseAll's result: a buffer the File owns and
	// reuses, so spilling banks allocates nothing.
	released []Bank
}

// New returns a file of n banks of the given word size. n=0 disables
// banking (every lookup misses).
func New(n, words int) *File {
	if words > 64 {
		panic("regbank: banks larger than 64 words not supported (dirty mask)")
	}
	if n > 64 {
		panic("regbank: more than 64 banks not supported (free mask)")
	}
	f := &File{banks: make([]Bank, n), prev: make([]int, n+1), next: make([]int, n+1), owners: make([]int32, n)}
	for i := range f.banks {
		f.banks[i] = Bank{Words: make([]uint16, words), Owner: OwnerFree}
	}
	f.rebuild()
	return f
}

// rebuild derives the free mask and the recency list from the banks'
// owners and ages: frame-owned banks in ascending age, ties broken by
// index, which is the order a scan for the strictly oldest bank visits.
func (f *File) rebuild() {
	s := len(f.banks)
	f.free = 0
	f.prev[s], f.next[s] = s, s
	for i := range f.banks {
		f.owners[i] = f.banks[i].Owner
		switch o := f.banks[i].Owner; {
		case o == OwnerFree:
			f.free |= 1 << uint(i)
		case o >= 0:
			// Insert after the last linked bank not younger than i.
			at := f.prev[s]
			for at != s && f.banks[at].age > f.banks[i].age {
				at = f.prev[at]
			}
			f.link(i, at)
		}
	}
}

// link inserts bank i after at in the recency list.
func (f *File) link(i, at int) {
	nx := f.next[at]
	f.prev[i], f.next[i] = at, nx
	f.next[at], f.prev[nx] = i, i
}

// unlink removes bank i from the recency list.
func (f *File) unlink(i int) {
	p, nx := f.prev[i], f.next[i]
	f.next[p], f.prev[nx] = nx, p
}

// setOwner changes bank i's owner, keeping the free mask and the recency
// list. A bank becoming frame-owned goes to the young end of the list: the
// caller has just given it the newest age.
func (f *File) setOwner(i int, owner int32) {
	b := &f.banks[i]
	switch {
	case b.Owner >= 0:
		f.unlink(i)
	case b.Owner == OwnerFree:
		f.free &^= 1 << uint(i)
	}
	b.Owner, f.owners[i] = owner, owner
	switch {
	case owner >= 0:
		f.link(i, f.prev[len(f.banks)])
	case owner == OwnerFree:
		f.free |= 1 << uint(i)
	}
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
	for i, o := range f.owners {
		if o == int32(lf) {
			return i
		}
	}
	return -1
}

// StackBank returns the bank currently holding the evaluation stack, or -1.
func (f *File) StackBank() int {
	for i, o := range f.owners {
		if o == OwnerStack {
			return i
		}
	}
	return -1
}

// Victim names the bank the next Acquire takes: the lowest-numbered free
// bank, or else the oldest frame-owned bank — the one least recently
// assigned or renamed. The stack bank is never chosen. Returns -1 if
// banking is disabled or every bank is the stack. When the bank is
// frame-owned the caller must write its dirty words to its frame before
// calling Acquire (§7.1: "the contents of the oldest bank is written out
// into the frame"); until then they are still in the bank's own Words.
func (f *File) Victim() int {
	if f.free != 0 {
		return bits.TrailingZeros64(f.free)
	}
	if v := f.next[len(f.banks)]; v != len(f.banks) {
		return v
	}
	return -1
}

// Acquire assigns the bank Victim names to a new owner, zeroed and clean,
// and returns it (-1 when Victim has none). A frame-owned victim's words
// are discarded: flush them first.
func (f *File) Acquire(owner int32) int {
	i := f.Victim()
	if i < 0 {
		return -1
	}
	f.clock++
	b := &f.banks[i]
	f.setOwner(i, owner)
	b.Dirty = 0
	b.age = f.clock
	clear(b.Words)
	return i
}

// Rename transfers bank i to a new owner without touching its contents —
// the §7.2 free argument passing. The dirty mask is preserved: the words
// written while the bank was the stack must reach the new frame if it is
// ever flushed.
func (f *File) Rename(i int, owner int32) {
	f.clock++
	f.banks[i].age = f.clock
	f.setOwner(i, owner)
}

// Release frees bank i; its contents are unimportant and never need to be
// saved (§7.1: a freed frame's bank is simply marked free).
func (f *File) Release(i int) {
	f.setOwner(i, OwnerFree)
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
	f.rebuild()
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
	f.rebuild()
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
	f.rebuild()
	f.released = out
	return out
}
