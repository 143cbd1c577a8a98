package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/image"
	"repro/internal/linker"
	"repro/internal/workload"
)

// runningBankConfigs are ablation A2's bank counts plus ConfigFastCalls.
func runningBankConfigs() []Config {
	var cfgs []Config
	for _, n := range []int{2, 3, 5, 9, 13} {
		cfgs = append(cfgs, Config{ReturnStackDepth: 8, RegBanks: n, BankWords: 16, FreeFrameStack: 8})
	}
	return append(cfgs, ConfigFastCalls)
}

// pointerProgram takes the address of a local in every frame of a
// recursion, after the frame's bank has been reloaded on a return — the
// corpus never executes LAB, which releases the running frame's bank.
func pointerProgram() *workload.Program {
	return &workload.Program{
		Name: "pointers",
		Sources: map[string]string{"lab": `
module lab;
proc bump(p, n) { store(p, load(p) + n); return load(p); }
proc walk(n) {
  var x = n;
  if (n == 0) { return 1; }
  var y = walk(n - 1);
  var s = bump(&x, y);
  return s + x;
}
proc main() { return walk(12); }
`},
		Module: "lab", Proc: "main",
	}
}

// checkRunningBank asserts the lfBank register names exactly the bank the
// bank file says shadows the running frame (-1 when there is none).
func checkRunningBank(t *testing.T, m *Machine, where string) {
	t.Helper()
	want := -1
	if m.lf != 0 {
		want = m.banks.Lookup(m.lf)
	}
	if m.lfBank != want {
		t.Fatalf("%s: lf %04x lfBank %d, bank file says %d", where, m.lf, m.lfBank, want)
	}
}

// stepChecked steps m until it halts or has executed limit instructions,
// checking the running-bank register after every instruction.
func stepChecked(t *testing.T, m *Machine, limit uint64, where string) {
	t.Helper()
	for !m.Halted() && m.metrics.Instructions < limit {
		if err := m.Step(); err != nil {
			t.Fatalf("%s: step %d: %v", where, m.metrics.Instructions, err)
		}
		checkRunningBank(t, m, fmt.Sprintf("%s after step %d", where, m.metrics.Instructions))
	}
}

// TestRunningBankMatchesLookup: the machine keeps the running frame's bank
// in a register instead of searching the bank file on every local load and
// store. After every instruction of every corpus program (and of one that
// takes pointers to locals), under each bank count, the register must
// equal the search — including across a mid-run
// Snapshot/Restore, a Fallback, a Reset and a re-Start of a cut machine.
func TestRunningBankMatchesLookup(t *testing.T) {
	for _, p := range append(workload.Corpus(), pointerProgram()) {
		prog, _, err := p.Build(linker.Options{EarlyBind: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range runningBankConfigs() {
			name := fmt.Sprintf("%s/banks=%d", p.Name, cfg.RegBanks)
			t.Run(name, func(t *testing.T) {
				boot := func() *Machine {
					m, err := New(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				m := boot()
				if err := m.Start(prog.Entry, p.Args...); err != nil {
					t.Fatal(err)
				}
				checkRunningBank(t, m, "after Start")
				stepChecked(t, m, ^uint64(0), "full run")
				if !m.Halted() {
					t.Fatal("full run did not halt")
				}
				want, total := m.Results(), m.metrics.Instructions

				for _, cut := range []uint64{total / 4, total / 2, 3 * total / 4} {
					where := fmt.Sprintf("cut at %d", cut)
					src := boot()
					if err := src.Start(prog.Entry, p.Args...); err != nil {
						t.Fatal(err)
					}
					stepChecked(t, src, cut, where)
					c, err := src.Snapshot()
					if err != nil {
						t.Fatal(err)
					}

					dst := boot()
					if err := dst.Restore(c); err != nil {
						t.Fatal(err)
					}
					checkRunningBank(t, dst, where+": after Restore")
					stepChecked(t, dst, ^uint64(0), where+": resumed")
					if got := dst.Results(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: resumed run returned %v, want %v", where, got, want)
					}

					// A fallback flushes every bank, the running frame's too;
					// the computation carries on from storage.
					if err := src.Fallback(); err != nil {
						t.Fatal(err)
					}
					checkRunningBank(t, src, where+": after Fallback")
					stepChecked(t, src, ^uint64(0), where+": after Fallback")
					if got := src.Results(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: run across Fallback returned %v, want %v", where, got, want)
					}

					// A re-Start or a Reset of a machine cut while a frame
					// was running leaves no frame running.
					if err := dst.Restore(c); err != nil {
						t.Fatal(err)
					}
					if err := dst.Start(0); err != nil {
						t.Fatal(err)
					}
					checkRunningBank(t, dst, where+": after Start(NIL)")
					if err := dst.Restore(c); err != nil {
						t.Fatal(err)
					}
					dst.Reset()
					checkRunningBank(t, dst, where+": after Reset")

					// Spilling the running frame's bank to make room for
					// another frame (a resumed context's reload does this
					// under few banks) leaves the frame running from storage.
					if err := dst.Restore(c); err != nil {
						t.Fatal(err)
					}
					for i := 0; dst.lfBank >= 0; i++ {
						if i > cfg.RegBanks {
							t.Fatalf("%s: %d acquires never spilled the running frame's bank", where, i)
						}
						dst.acquireBank(int32(image.HeapLimit) + int32(i))
						checkRunningBank(t, dst, where+": after acquire")
					}
				}
			})
		}
	}
}
