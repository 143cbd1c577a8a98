package ifu

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPushPopLIFO(t *testing.T) {
	s := New(4)
	for i := 0; i < 4; i++ {
		if _, evicted := s.Push(Entry{LF: uint16(i)}); evicted {
			t.Fatalf("eviction at %d of 4", i)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 3; i >= 0; i-- {
		e, ok := s.Pop()
		if !ok || e.LF != uint16(i) {
			t.Fatalf("pop %d: %v %v", i, e, ok)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("pop of empty stack succeeded")
	}
}

func TestOverflowEvictsOldest(t *testing.T) {
	s := New(2)
	s.Push(Entry{LF: 1})
	s.Push(Entry{LF: 2})
	old, evicted := s.Push(Entry{LF: 3})
	if !evicted || old.LF != 1 {
		t.Fatalf("evicted %v %v, want oldest (1)", old, evicted)
	}
	// Remaining order is preserved.
	e, _ := s.Pop()
	if e.LF != 3 {
		t.Fatalf("top = %d", e.LF)
	}
	e, _ = s.Pop()
	if e.LF != 2 {
		t.Fatalf("next = %d", e.LF)
	}
}

func TestZeroDepthAlwaysEvicts(t *testing.T) {
	s := New(0)
	e := Entry{LF: 7, PC: 99}
	old, evicted := s.Push(e)
	if !evicted || old != e {
		t.Fatalf("depth-0 push: %v %v", old, evicted)
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("depth-0 pop succeeded")
	}
}

func TestFlushReturnsOldestFirst(t *testing.T) {
	s := New(4)
	for i := 1; i <= 3; i++ {
		s.Push(Entry{LF: uint16(i)})
	}
	out := s.Flush()
	if len(out) != 3 {
		t.Fatalf("flushed %d", len(out))
	}
	for i, e := range out {
		if e.LF != uint16(i+1) {
			t.Fatalf("flush order %v", out)
		}
	}
	if s.Len() != 0 {
		t.Fatal("stack not empty after flush")
	}
}

func TestRandomSequenceMatchesModel(t *testing.T) {
	// Property: against a simple slice model, Push/Pop/Flush behave as a
	// bounded LIFO with oldest-eviction, and Entries reads the live entries
	// oldest first wherever the ring has wrapped to; LoadEntries of a
	// capture restores it.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		depth := 1 + rng.Intn(6)
		s := New(depth)
		var model []Entry
		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0, 4:
				e := Entry{LF: uint16(rng.Intn(1000)), PC: uint32(rng.Intn(1 << 20))}
				old, evicted := s.Push(e)
				model = append(model, e)
				if len(model) > depth {
					if !evicted || old != model[0] {
						t.Fatalf("eviction mismatch: %v vs %v", old, model[0])
					}
					model = model[1:]
				} else if evicted {
					t.Fatal("spurious eviction")
				}
			case 1:
				e, ok := s.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v, model %d", ok, len(model))
				}
				if ok {
					if e != model[len(model)-1] {
						t.Fatalf("pop mismatch")
					}
					model = model[:len(model)-1]
				}
			case 2:
				out := s.Flush()
				if len(out) != len(model) {
					t.Fatalf("flush %d vs %d", len(out), len(model))
				}
				for i := range out {
					if out[i] != model[i] {
						t.Fatal("flush order mismatch")
					}
				}
				model = model[:0]
			case 3:
				// Re-load the stack from its own capture (a Restore).
				s.Reset()
				s.LoadEntries(append([]Entry(nil), model...))
			}
			if s.Len() != len(model) {
				t.Fatalf("len mismatch")
			}
			if got := s.Entries(); len(got) != len(model) || (len(got) > 0 && !reflect.DeepEqual(got, model)) {
				t.Fatalf("Entries %v, model %v", got, model)
			}
		}
	}
}

func TestReset(t *testing.T) {
	s := New(4)
	for i := 0; i < 3; i++ {
		s.Push(Entry{LF: uint16(i)})
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Reset", s.Len())
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop succeeded on a reset stack")
	}
	if s.Depth() != 4 {
		t.Fatal("Reset changed the configured depth")
	}
	s.Push(Entry{LF: 9})
	if s.Len() != 1 {
		t.Fatal("stack unusable after Reset")
	}
}
