package difffuzz

import "testing"

// effectsSeeds are corpus seeds whose generated programs store through
// run-allocated records (12, 17, 32, 169) or write nothing outside the
// frame arena (37, 78, 157): the two storage shapes a Reset must undo or
// leave alone.
var effectsSeeds = []int64{12, 17, 32, 169, 37, 78, 157}

// TestEffectsSeedDifferential pushes every pinned seed through the full
// oracle, whose metamorphic phase drives the run-Reset-run chain.
func TestEffectsSeedDifferential(t *testing.T) {
	for _, seed := range effectsSeeds {
		if err := CheckSeed(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
