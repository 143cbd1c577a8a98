package difffuzz

import "testing"

// pushdownSeeds are corpus seeds whose generated programs combine
// self-recursion (3, 4, 26, 94), coroutine transfers (3, 10, 94) and armed
// trap dispatch (3, 4, 25, 94) — the shapes the verifier's call/return
// summaries and its trap rerun have to admit.
var pushdownSeeds = []int64{3, 4, 10, 25, 26, 94}

// TestPushdownSeedDifferential pushes every pinned seed through the full
// oracle, admission included.
func TestPushdownSeedDifferential(t *testing.T) {
	for _, seed := range pushdownSeeds {
		if err := CheckSeed(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
