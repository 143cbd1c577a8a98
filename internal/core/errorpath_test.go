package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
)

// badImageProg links a program whose main body is the recognizable
// three-byte sequence LIB 0x5A; RET, and returns it with the byte offset
// of that sequence so tests can overwrite it with malformed encodings.
func badImageProg(t *testing.T) (*image.Program, int) {
	t.Helper()
	p := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
	var a image.Asm
	a.Emit(isa.LIB, 0x5A)
	a.Emit(isa.RET)
	p.Body = a.Fragment()
	mod := &image.Module{Name: "bad", Procs: []*image.Proc{p}}
	prog := linkOne(t, mod, "main", linker.Options{})
	i := bytes.Index(prog.Code, []byte{byte(isa.LIB), 0x5A, byte(isa.RET)})
	if i < 0 {
		t.Fatal("main body not found in linked code")
	}
	return prog, i
}

// patchJW overwrites the three bytes at i with a JW jumping to target.
func patchJW(code []byte, i, target int) {
	rel := int16(target - i)
	code[i] = byte(isa.JW)
	code[i+1] = byte(uint16(rel))
	code[i+2] = byte(uint16(rel) >> 8)
}

// TestRunErrorFidelity: when execution reaches a malformed or truncated
// encoding — or leaves the code space — the engine reports exactly the
// byte pc and error text isa.Decode produces for that pc, wrapped with
// the procedure name. Predecoding must not change what failures look
// like.
func TestRunErrorFidelity(t *testing.T) {
	run := func(t *testing.T, prog *image.Program, failPC int) {
		t.Helper()
		m, err := New(prog, ConfigFastCalls)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.CallNamed("bad", "main")
		if err == nil {
			t.Fatal("malformed image ran cleanly")
		}
		_, _, derr := isa.Decode(prog.Code, failPC)
		if derr == nil {
			t.Fatalf("pc %d: expected Decode to fail", failPC)
		}
		want := fmt.Sprintf("%s at pc %06x: %s", prog.ProcName(uint32(failPC)), failPC, derr)
		if err.Error() != want {
			t.Fatalf("error = %q, want %q", err, want)
		}
	}

	t.Run("bad opcode", func(t *testing.T) {
		prog, i := badImageProg(t)
		prog.Code[i+2] = 0xEE // LIB executes, then dispatch hits the bad byte
		run(t, prog, i+2)
	})

	t.Run("truncated instruction", func(t *testing.T) {
		prog, i := badImageProg(t)
		end := len(prog.Code)
		prog.Code = append(prog.Code, byte(isa.JW), 0x01) // JW missing its second operand byte
		patchJW(prog.Code, i, end)
		run(t, prog, end)
	})

	t.Run("pc outside code", func(t *testing.T) {
		prog, i := badImageProg(t)
		patchJW(prog.Code, i, len(prog.Code))
		m, err := New(prog, ConfigFastCalls)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.CallNamed("bad", "main")
		pc := len(prog.Code)
		want := fmt.Sprintf("%s at pc %06x: %s", prog.ProcName(uint32(pc)), pc,
			isa.ErrPCRange(pc, len(prog.Code)))
		if err == nil || err.Error() != want {
			t.Fatalf("error = %v, want %q", err, want)
		}
	})
}

// runMain boots prog on ConfigFastCalls and calls its entry procedure.
func runMain(t *testing.T, prog *image.Program) ([]mem.Word, error) {
	t.Helper()
	img, err := LoadImage(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	m, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m.Call(img.Entry())
}

// TestHandlerFaultFidelity: a fault raised by an instruction — by the
// pre-dispatch stack-window test or inside its handler — is reported at
// the post-advance byte pc of the faulting instruction (not the start of
// the expression, not its end) with the exact error text, Step reports
// the same fault as Run, a stack fault strikes before the instruction has
// any effect, and a trap caught by an in-machine handler resumes with the
// trapping context's partial stack intact.
func TestHandlerFaultFidelity(t *testing.T) {
	// stackFault runs prog's main (whose body contains seq) with Run and
	// then, on a fresh machine, with Step, and checks both report text at
	// the post-advance pc seq+at. It returns the machine Run drove.
	stackFault := func(t *testing.T, body func(*image.Asm), seq []byte, at int, text string) *Machine {
		t.Helper()
		p := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 1}
		var a image.Asm
		body(&a)
		p.Body = a.Fragment()
		mod := &image.Module{Name: "bad", Procs: []*image.Proc{p}}
		prog := linkOne(t, mod, "main", linker.Options{})
		i := bytes.Index(prog.Code, seq)
		if i < 0 {
			t.Fatalf("% x not found in linked code", seq)
		}
		pc := i + at
		img, err := LoadImage(prog, ConfigFastCalls)
		if err != nil {
			t.Fatal(err)
		}
		boot := func() *Machine {
			m, err := img.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}

		m := boot()
		_, err = m.Call(img.Entry())
		want := fmt.Sprintf("%s at pc %06x: %s", prog.ProcName(uint32(pc)), pc, text)
		if err == nil || err.Error() != want {
			t.Fatalf("Run error = %v, want %q", err, want)
		}

		s := boot()
		if err := s.Start(img.Entry()); err != nil {
			t.Fatal(err)
		}
		for err = s.Step(); err == nil; err = s.Step() {
		}
		if err.Error() != text || s.PC() != uint32(pc) {
			t.Fatalf("Step error = %q at pc %06x, want %q at pc %06x", err, s.PC(), text, pc)
		}
		return m
	}

	t.Run("overflow mid-expression", func(t *testing.T) {
		// Thirteen pushes fit exactly; the fourteenth faults. The twelve
		// LI1s and the first LL0 fill the stack, then the SECOND LL0 (at
		// i+1, reported at its post-advance pc i+2) faults at depth 13.
		m := stackFault(t, func(a *image.Asm) {
			for j := 0; j < 12; j++ {
				a.Emit(isa.LI1)
			}
			a.Emit(isa.LL0)
			a.Emit(isa.LL0)
			a.Emit(isa.ADD)
			a.Emit(isa.RET)
		}, []byte{byte(isa.LL0), byte(isa.LL0), byte(isa.ADD)}, 2,
			fmt.Sprintf("%s: push at depth %d", ErrStack, EvalStackDepth))
		// The fault precedes the faulting LL0's effects: only the LL0
		// that completed counted a local reference.
		if got := m.Metrics().LocalVarRefs; got != 1 {
			t.Fatalf("LocalVarRefs = %d, want 1", got)
		}
	})

	t.Run("underflow", func(t *testing.T) {
		// LIB 0x5A; POP empties the stack; ADD at i+3 underflows and is
		// reported at its post-advance pc i+4.
		stackFault(t, func(a *image.Asm) {
			a.Emit(isa.LIB, 0x5A)
			a.Emit(isa.POP)
			a.Emit(isa.ADD)
			a.Emit(isa.RET)
		}, []byte{byte(isa.LIB), 0x5A, byte(isa.POP), byte(isa.ADD)}, 4,
			fmt.Sprintf("%s: pop of empty stack", ErrStack))
	})

	t.Run("div-zero trap", func(t *testing.T) {
		p := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
		var a image.Asm
		a.Emit(isa.LI1)
		a.Emit(isa.LI0)
		a.Emit(isa.DIV)
		a.Emit(isa.RET)
		p.Body = a.Fragment()
		mod := &image.Module{Name: "bad", Procs: []*image.Proc{p}}
		prog := linkOne(t, mod, "main", linker.Options{})
		i := bytes.Index(prog.Code, []byte{byte(isa.LI1), byte(isa.LI0), byte(isa.DIV)})
		if i < 0 {
			t.Fatal("LI1 LI0 DIV not found in linked code")
		}

		_, err := runMain(t, prog)
		if err == nil {
			t.Fatal("trap did not fail")
		}
		// The trap fires after DIV retired: both the trap text and the
		// wrapper report the post-advance pc (the RET's byte address, i+3).
		pc := i + 3
		name := prog.ProcName(uint32(pc))
		want := fmt.Sprintf("%s at pc %06x: %s: code %d at pc %06x (%s)",
			name, pc, ErrTrap, TrapDivZero, pc, name)
		if err.Error() != want {
			t.Fatalf("error = %q, want %q", err, want)
		}
	})

	t.Run("div-zero resumed through an in-machine handler", func(t *testing.T) {
		// STRAP installs a handler, then LIB/LI0/DIV traps mid-expression:
		// the trapXfer must capture the partial stack ([21], the word below
		// the operands) and resume the trapping context on top of it.
		mod := &image.Module{Name: "bad"}
		handler := &image.Proc{Name: "handler", NumArgs: 1, NumLocals: 1}
		{
			var a image.Asm
			a.Emit(isa.LL0)
			a.Emit(isa.LI2)
			a.Emit(isa.MUL)
			a.Emit(isa.RET)
			handler.Body = a.Fragment()
		}
		p := &image.Proc{Name: "main", NumArgs: 0, NumLocals: 0}
		{
			var a image.Asm
			a.EmitLoadLocalDesc(1)
			a.Emit(isa.STRAP)
			a.Emit(isa.LIB, 21)
			a.Emit(isa.LIB, 5)
			a.Emit(isa.LI0)
			a.Emit(isa.DIV) // 5/0 traps; handler(TrapDivZero) = 2*TrapDivZero
			a.Emit(isa.ADD) // 21 + handler result
			a.Emit(isa.RET)
			p.Body = a.Fragment()
		}
		mod.Procs = []*image.Proc{p, handler}
		prog := linkOne(t, mod, "main", linker.Options{})

		res, err := runMain(t, prog)
		if err != nil {
			t.Fatalf("handled trap failed the run: %v", err)
		}
		want := []mem.Word{21 + 2*TrapDivZero}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("results = %v, want %v", res, want)
		}
	})
}
