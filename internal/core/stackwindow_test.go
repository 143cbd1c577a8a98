package core

import (
	"fmt"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
)

// TestStackEffectColumnExact pins the metadata table's stack-effect
// column to the handlers. Both the verifier and the pre-dispatch window
// test trust that column, so for every fixed-effect opcode, executed alone
// by Step:
//   - at the low and high edge of its window [Pops, EvalStackDepth −
//     max(0, Pushes−Pops)] the handler succeeds and moves sp by exactly
//     Pushes−Pops;
//   - one word below the window faults with "pop of empty stack" and one
//     word above it with "push at depth EvalStackDepth", in both cases
//     before the handler runs (sp unchanged).
func TestStackEffectColumnExact(t *testing.T) {
	mod := &image.Module{Name: "eff"}
	for _, name := range []string{"main", "co"} {
		var a image.Asm
		a.Emit(isa.RET)
		mod.Procs = append(mod.Procs, &image.Proc{Name: name, NumLocals: 1, Body: a.Fragment()})
	}
	prog := linkOne(t, mod, "main", linker.Options{})
	img, err := LoadImage(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	coDesc, err := prog.FindProc("eff", "co")
	if err != nil {
		t.Fatal(err)
	}

	// exec runs op, appended to the linked code, alone at stack depth sp
	// in main's context. Every stack word is 1 (a
	// non-zero divisor, a readable address) except the top, which gets the
	// operand the few context-consuming opcodes need to succeed.
	exec := func(t *testing.T, op isa.Op, sp int) (*Machine, error) {
		t.Helper()
		m, err := img.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(img.Entry()); err != nil {
			t.Fatal(err)
		}
		m.code = isa.Append(append([]byte(nil), prog.Code...), isa.Instr{Op: op})
		m.insts, _ = isa.Predecode(m.code)
		m.pc = uint32(len(prog.Code))
		for i := 0; i < sp && i < EvalStackDepth; i++ {
			m.stack[i] = 1
		}
		if sp > 0 && sp <= EvalStackDepth {
			switch op {
			case isa.COCREATE:
				m.stack[sp-1] = coDesc
			case isa.FREE, isa.FFREE:
				lf, err := m.heap.Alloc(0)
				if err != nil {
					t.Fatal(err)
				}
				m.stack[sp-1] = image.FramePtr(lf)
			}
		}
		m.sp = sp
		return m, m.Step()
	}

	underflow := fmt.Sprintf("%s: pop of empty stack", ErrStack)
	overflow := fmt.Sprintf("%s: push at depth %d", ErrStack, EvalStackDepth)
	checked := 0
	for op := isa.Op(0); op < isa.NumOps; op++ {
		info := isa.InfoOf(op)
		if info.Pops == isa.VarEffect {
			continue
		}
		checked++
		pops, pushes := int(info.Pops), int(info.Pushes)
		lo, hi := pops, EvalStackDepth-max(0, pushes-pops)
		t.Run(info.Name, func(t *testing.T) {
			if w := stackWindow[op]; w != (window{lo, hi}) {
				t.Fatalf("stackWindow = %+v, want [%d, %d]", w, lo, hi)
			}
			for _, sp := range []int{lo, hi} {
				m, err := exec(t, op, sp)
				if err != nil {
					t.Fatalf("depth %d: %v", sp, err)
				}
				if want := sp + pushes - pops; m.sp != want {
					t.Errorf("depth %d: sp = %d after the handler, want %d (Pops %d, Pushes %d)",
						sp, m.sp, want, pops, pushes)
				}
			}
			for _, c := range []struct {
				sp   int
				want string
			}{{lo - 1, underflow}, {hi + 1, overflow}} {
				if c.sp < 0 || c.sp > EvalStackDepth {
					continue // no machine state lies there
				}
				m, err := exec(t, op, c.sp)
				if err == nil || err.Error() != c.want {
					t.Errorf("depth %d: error = %v, want %q", c.sp, err, c.want)
				}
				if pc := len(prog.Code) + info.Len(); m.sp != c.sp || m.pc != uint32(pc) {
					t.Errorf("depth %d: fault left sp=%d pc=%d, want sp=%d pc=%d (post-advance, no effects)",
						c.sp, m.sp, m.pc, c.sp, pc)
				}
			}
		})
	}
	if checked == 0 {
		t.Fatal("no fixed-effect opcodes")
	}
}
