//go:build !race

// The race detector instruments allocations, so the allocation gate only
// builds without -race.

package fpc_test

import (
	"testing"

	fpc "repro"
	"repro/internal/workload"
)

// TestCallAllocations is the allocation gate on the steady-state run path.
// For every corpus program on ConfigFastCalls, a machine checked out of
// the pool — so a GC that empties the sync.Pool cannot add a boot — runs Call,
// merges into an aggregate and Resets with exactly one allocation per run:
// the results slice. Bank spills and reloads, trap saves and per-transfer
// histogram samples allocate nothing once the machine has run once. A
// whole Pool.Call adds only the run's detached CallResult and Metrics.
func TestCallAllocations(t *testing.T) {
	const maxPoolCallAllocs = 10
	for _, p := range workload.Corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, _, err := p.Build(fpc.DefaultLinkOptions(fpc.ConfigFastCalls))
			if err != nil {
				t.Fatal(err)
			}
			pool, err := fpc.NewPool(prog, fpc.ConfigFastCalls)
			if err != nil {
				t.Fatal(err)
			}
			m, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			var agg fpc.Metrics
			run := testing.AllocsPerRun(20, func() {
				if _, err := m.Call(prog.Entry, p.Args...); err != nil {
					t.Fatal(err)
				}
				m.MergeMetricsInto(&agg)
				m.Reset()
			})
			pool.Put(m)
			if run != 1 {
				t.Errorf("Call + merge + Reset: %v allocations per run, want 1 (the results slice)", run)
			}
			call := testing.AllocsPerRun(20, func() {
				if _, err := pool.Call(prog.Entry, p.Args...); err != nil {
					t.Fatal(err)
				}
			})
			if call > maxPoolCallAllocs {
				t.Errorf("Pool.Call: %v allocations per call, want at most %d", call, maxPoolCallAllocs)
			}
			t.Logf("machine=%v pool=%v", run, call)
		})
	}
}
