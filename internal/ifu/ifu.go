// Package ifu models the instruction-fetch-unit state of §6: a small
// hardware return stack holding (frame pointer, global frame pointer, PC)
// for each suspended caller, so that returns can be handled as fast as
// calls — and calls as fast as unconditional jumps — as long as transfers
// follow a LIFO discipline.
//
// When anything unusual happens (an XFER other than a simple call or
// return, or the stack overflowing), the machine falls back to the general
// scheme by flushing entries: the frame pointer goes into the returnLink
// component of the next higher frame, and the PC into the PC component of
// the entry's own frame. The package only keeps the state; the processor
// performs the memory writes, so the cost accounting stays in one place.
package ifu

// Entry records one suspended caller: the processor-register state that
// would otherwise have to be written to storage. FSI and Retained cache
// the caller's frame-header fields so the eventual fast return need not
// re-read the header; FSI is -1 when unknown (the caller was entered via
// the general path).
type Entry struct {
	LF       uint16 // caller's local frame pointer
	GF       uint16 // caller's global frame pointer
	PC       uint32 // caller's resumption PC (absolute code byte address)
	FSI      int16  // caller's frame size class, -1 unknown
	Retained bool   // caller's frame is retained
	// CalleeLF is the frame entered by this call: flushing the entry
	// writes LF into that frame's returnLink (already done at call time in
	// this implementation; kept for diagnostics).
	CalleeLF uint16
}

// Stack is the IFU return stack: a fixed ring of depth slots, so pushing
// onto a full stack overwrites the oldest entry in place. The zero value is
// unusable; call New.
type Stack struct {
	ring  []Entry // len == depth
	head  int     // slot of the oldest live entry
	n     int     // live entries
	depth int
	// flushed holds Flush's result: a buffer the stack owns and reuses.
	flushed []Entry
}

// New returns a return stack holding up to depth entries; depth 0 disables
// the optimization (every operation misses).
func New(depth int) *Stack {
	return &Stack{ring: make([]Entry, depth), depth: depth, flushed: make([]Entry, 0, depth)}
}

// Depth reports the configured capacity.
func (s *Stack) Depth() int { return s.depth }

// Len reports the number of live entries.
func (s *Stack) Len() int { return s.n }

// slot maps the i-th live entry, oldest first, to its ring slot.
func (s *Stack) slot(i int) int {
	j := s.head + i
	if j >= s.depth {
		j -= s.depth
	}
	return j
}

// Push records a suspended caller. If the stack is full the oldest entry
// is evicted and returned with evicted=true: the machine must flush it to
// storage.
func (s *Stack) Push(e Entry) (old Entry, evicted bool) {
	if s.depth == 0 {
		return e, true
	}
	if s.n == s.depth {
		old = s.ring[s.head]
		s.ring[s.head] = e
		if s.head++; s.head == s.depth {
			s.head = 0
		}
		return old, true
	}
	s.ring[s.slot(s.n)] = e
	s.n++
	return Entry{}, false
}

// Pop removes and returns the most recent entry. ok is false when the
// stack is empty (the return must take the general path).
func (s *Stack) Pop() (Entry, bool) {
	if s.n == 0 {
		return Entry{}, false
	}
	s.n--
	return s.ring[s.slot(s.n)], true
}

// Reset discards every entry without returning them — the power-on state,
// used when a machine is rebooted from its image snapshot (nothing needs
// flushing: the whole store is being restored anyway).
func (s *Stack) Reset() {
	s.head, s.n = 0, 0
}

// appendEntries appends the live entries to dst, oldest first.
func (s *Stack) appendEntries(dst []Entry) []Entry {
	for i := 0; i < s.n; i++ {
		dst = append(dst, s.ring[s.slot(i)])
	}
	return dst
}

// Entries returns an independent copy of the live entries, oldest first,
// without disturbing the stack — the non-destructive capture a machine
// snapshot needs. Unlike Flush nothing is emptied and nothing needs to be
// written to storage: the suspended state stays exactly as it is.
func (s *Stack) Entries() []Entry {
	if s.n == 0 {
		return nil
	}
	return s.appendEntries(make([]Entry, 0, s.n))
}

// LoadEntries replaces the stack contents with a copy of entries (oldest
// first) — restoring a capture taken with Entries onto a reset stack. The
// caller guarantees the capture came from a stack of the same depth;
// exceeding the configured depth is an invariant violation.
func (s *Stack) LoadEntries(entries []Entry) {
	if len(entries) > s.depth {
		panic("ifu: LoadEntries exceeds configured depth")
	}
	s.head, s.n = 0, copy(s.ring, entries)
}

// Flush empties the stack, returning the entries oldest-first so the
// machine can write each to storage. The result lives in a buffer the
// stack owns, valid until the next Flush.
func (s *Stack) Flush() []Entry {
	out := s.appendEntries(s.flushed[:0])
	s.head, s.n = 0, 0
	return out
}
