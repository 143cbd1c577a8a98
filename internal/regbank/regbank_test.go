package regbank

import (
	"math/rand"
	"testing"
)

func TestAcquireFreeBanks(t *testing.T) {
	f := New(3, 16)
	if v := f.Victim(); v < 0 || f.Get(v).Owner != OwnerFree {
		t.Fatalf("first victim %d is not a free bank", v)
	}
	b1 := f.Acquire(100)
	b2 := f.Acquire(200)
	b3 := f.Acquire(300)
	if b1 == b2 || b2 == b3 || b1 == b3 {
		t.Fatal("banks not distinct")
	}
	if f.Lookup(200) != b2 {
		t.Fatal("lookup failed")
	}
}

func TestOverflowEvictsOldestNotStack(t *testing.T) {
	f := New(3, 16)
	sb := f.Acquire(OwnerStack)
	f.Acquire(100)
	f.Acquire(200)
	// All full; next acquisition must evict 100 (oldest frame bank), never
	// the stack bank.
	v := f.Victim()
	if v < 0 || f.Get(v).Owner != 100 {
		t.Fatalf("victim = %d, want the bank of owner 100", v)
	}
	if b := f.Acquire(300); b != v || b == sb {
		t.Fatal("stack bank evicted")
	}
	if f.StackBank() != sb {
		t.Fatal("stack bank lost")
	}
}

func TestRenamePreservesContentsAndDirty(t *testing.T) {
	f := New(2, 8)
	b := f.Acquire(OwnerStack)
	f.Write(b, 3, 0xBEEF)
	f.Rename(b, 500)
	if f.Lookup(500) != b {
		t.Fatal("rename lost ownership")
	}
	if f.Read(b, 3) != 0xBEEF {
		t.Fatal("rename lost contents — argument passing would not be free")
	}
	if f.Get(b).Dirty&(1<<3) == 0 {
		t.Fatal("rename lost dirty mask — a later flush would drop the argument")
	}
}

func TestReleaseDropsContentsWithoutFlush(t *testing.T) {
	f := New(2, 8)
	b := f.Acquire(42)
	f.Write(b, 0, 1)
	f.Release(b)
	if f.Lookup(42) >= 0 {
		t.Fatal("released bank still owned")
	}
	// A new owner gets a zeroed bank.
	b2 := f.Acquire(43)
	if f.Read(b2, 0) != 0 {
		t.Fatal("bank not cleared on reassignment")
	}
}

func TestLoadClearsDirty(t *testing.T) {
	f := New(1, 4)
	b := f.Acquire(10)
	f.Write(b, 1, 5)
	f.Load(b, []uint16{9, 8, 7, 6})
	if f.Get(b).Dirty != 0 {
		t.Fatal("reload should not mark words dirty")
	}
	if f.Read(b, 0) != 9 || f.Read(b, 3) != 6 {
		t.Fatal("load contents wrong")
	}
}

func TestReleaseAllReturnsFrameBanksOnly(t *testing.T) {
	f := New(4, 8)
	f.Acquire(OwnerStack)
	f.Acquire(1)
	b := f.Acquire(2)
	f.Write(b, 0, 77)
	out := f.ReleaseAll()
	if len(out) != 2 {
		t.Fatalf("ReleaseAll returned %d banks, want the 2 frame banks", len(out))
	}
	for _, bk := range out {
		if bk.Owner != 1 && bk.Owner != 2 {
			t.Fatalf("unexpected owner %d", bk.Owner)
		}
		if bk.Owner == 2 && bk.Words[0] != 77 {
			t.Fatal("flush copy lost contents")
		}
	}
	if f.StackBank() >= 0 || f.Lookup(1) >= 0 {
		t.Fatal("banks not freed")
	}
}

func TestDisabledFile(t *testing.T) {
	f := New(0, 16)
	if b := f.Acquire(1); b != -1 {
		t.Fatal("disabled file handed out a bank")
	}
	if f.Lookup(1) != -1 || f.BankWords() != 0 {
		t.Fatal("disabled file misbehaves")
	}
}

func TestRandomOwnershipInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := New(5, 16)
	owners := map[int32]bool{}
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			o := int32(rng.Intn(50) * 2)
			if f.Lookup(uint16(o)) < 0 {
				if v := f.Victim(); v >= 0 && f.Get(v).Owner >= 0 {
					delete(owners, f.Get(v).Owner)
				}
				f.Acquire(o)
				owners[o] = true
			}
		case 1:
			o := int32(rng.Intn(50) * 2)
			if b := f.Lookup(uint16(o)); b >= 0 {
				f.Release(b)
				delete(owners, o)
			}
		case 2:
			// invariant: no two banks share an owner
			seen := map[int32]bool{}
			for b := 0; b < f.NumBanks(); b++ {
				o := f.Get(b).Owner
				if o == OwnerFree {
					continue
				}
				if seen[o] {
					t.Fatalf("owner %d has two banks", o)
				}
				seen[o] = true
			}
		}
	}
}

func TestBankWordsLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized banks accepted")
		}
	}()
	New(1, 65)
}

func TestReset(t *testing.T) {
	f := New(4, 16)
	b := f.Acquire(OwnerStack)
	f.Write(b, 3, 0xBEEF)
	b2 := f.Acquire(0x1234)
	f.Write(b2, 0, 1)
	f.Reset()
	for i := 0; i < f.NumBanks(); i++ {
		bank := f.Get(i)
		if bank.Owner != OwnerFree || bank.Dirty != 0 {
			t.Fatalf("bank %d not free/clean after Reset: %+v", i, bank)
		}
		for j, w := range bank.Words {
			if w != 0 {
				t.Fatalf("bank %d word %d = %04x after Reset", i, j, w)
			}
		}
	}
	if f.StackBank() != -1 || f.Lookup(0x1234) != -1 {
		t.Fatal("ownership survived Reset")
	}
}
