package core

import (
	"fmt"

	"repro/internal/frames"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The decode-once execution engine. The shared LoadedImage predecodes the
// immutable byte stream at load time (isa.Predecode); executing one
// instruction is then a table index plus one indirect call through the
// per-opcode handler table below — no isa.Decode, no operand assembly and
// no range-check switch on the hot path. Step is the single-instruction
// wrapper over the same handlers Run's inner loop drives.
//
// There is one handler set. Every opcode with a fixed stack effect
// (isa.InfoOf(op).Pops != VarEffect) touches the evaluation stack through
// the unchecked pushU/popU; the bounds test is hoisted out of the handler
// into one pre-dispatch comparison of sp against the opcode's stack window
// (stackWindow, derived from the metadata table). Handlers whose stack
// effect depends on machine state (calls, RET, XFERO, TRAPB) and pushes
// that follow Go-level trap-hook code keep the checked push/pop.

// Step executes one instruction. It returns ErrHalted once the machine has
// halted.
func (m *Machine) Step() error {
	if m.halted {
		return ErrHalted
	}
	pc := m.pc
	if pc >= uint32(len(m.code)) {
		return isa.ErrPCRange(int(pc), len(m.code))
	}
	in := &m.insts[pc]
	if !in.Valid() {
		return in.Err(m.code, int(pc))
	}
	m.pc = pc + uint32(in.Size)
	m.metrics.Instructions++
	m.cycles += CycDispatch
	if w := stackWindow[in.Op]; m.sp < w.lo || m.sp > w.hi {
		return w.fault(m.sp)
	}
	return handlers[in.Op](m, in)
}

// handlerFunc executes one predecoded instruction. The program counter has
// already been advanced past the instruction, the dispatch cycle charged
// and the stack window tested when a handler runs.
type handlerFunc func(*Machine, *isa.Inst) error

// handlers is the dispatch table, indexed by opcode. Every defined opcode
// has a non-nil entry (asserted by TestHandlerTableTotal); undefined
// opcodes never reach the table because predecode marks them invalid.
var handlers [isa.NumOps]handlerFunc

// window is the evaluation-stack depth range [lo, hi] inside which an
// instruction's fixed stack effect can neither underflow nor overflow.
type window struct{ lo, hi int }

// fault is the error the first failing pop or push would raise at depth
// sp outside the window: every pop precedes every push, so an underflow
// empties the stack and an overflow strikes at full depth.
func (w window) fault(sp int) error {
	if sp < w.lo {
		return fmt.Errorf("%w: pop of empty stack", ErrStack)
	}
	return fmt.Errorf("%w: push at depth %d", ErrStack, EvalStackDepth)
}

// stackWindow[op] is op's window, derived from the metadata table's
// stack-effect column: [Pops, EvalStackDepth − max(0, Pushes−Pops)]. A
// VarEffect opcode gets the whole range; its handler checks each push and
// pop itself.
var stackWindow [isa.NumOps]window

func init() {
	set := func(f handlerFunc, lo, hi isa.Op) {
		for op := lo; op <= hi; op++ {
			handlers[op] = f
		}
	}
	one := func(f handlerFunc, op isa.Op) { handlers[op] = f }

	one(hNoop, isa.NOOP)
	one(hHalt, isa.HALT)
	one(hOut, isa.OUT)
	set(hLoadLocal, isa.LL0, isa.LL7)
	set(hStoreLocal, isa.SL0, isa.SL7)
	one(hLoadLocal, isa.LLB)
	one(hStoreLocal, isa.SLB)
	one(hLocalAddr, isa.LAB)
	set(hLoadGlobal, isa.LG0, isa.LG3)
	one(hLoadGlobal, isa.LGB)
	one(hStoreGlobal, isa.SGB)
	set(hLit, isa.LIN1, isa.LIW)
	one(hAdd, isa.ADD)
	one(hSub, isa.SUB)
	one(hMul, isa.MUL)
	one(hDiv, isa.DIV)
	one(hMod, isa.MOD)
	one(hNeg, isa.NEG)
	one(hAnd, isa.AND)
	one(hOr, isa.OR)
	one(hXor, isa.XOR)
	one(hNot, isa.NOT)
	one(hShl, isa.SHL)
	one(hShr, isa.SHR)
	one(hDup, isa.DUP)
	one(hPop, isa.POP)
	one(hExch, isa.EXCH)
	one(hLdind, isa.LDIND)
	one(hStind, isa.STIND)
	one(hReadField, isa.RFB)
	one(hWriteField, isa.WFB)
	set(hJump, isa.JB, isa.JW)
	one(hJumpZero, isa.JZB)
	one(hJumpNonzero, isa.JNZB)
	set(hCompareJump, isa.JEB, isa.JGEB)
	set(hExternalCall, isa.EFC0, isa.EFCB)
	set(hLocalCall, isa.LFC0, isa.LFCB)
	set(hDirectCall, isa.DCALL, isa.SDCALL)
	one(hReturn, isa.RET)
	one(hXfer, isa.XFERO)
	one(hCocreate, isa.COCREATE)
	one(hLoadRetCtx, isa.LRC)
	one(hLoadFrame, isa.LLF)
	one(hRetain, isa.RETAIN)
	one(hFree, isa.FREE)
	one(hAllocFrame, isa.AFB)
	one(hFreeFrame, isa.FFREE)
	one(hTrap, isa.TRAPB)
	one(hSetTrap, isa.STRAP)

	for op := isa.Op(0); op < isa.NumOps; op++ {
		w := window{0, EvalStackDepth}
		if info := isa.InfoOf(op); info.Pops != isa.VarEffect {
			w.lo = int(info.Pops)
			w.hi -= max(0, int(info.Pushes-info.Pops))
		}
		stackWindow[op] = w
	}
}

func hNoop(m *Machine, _ *isa.Inst) error { return nil }

func hHalt(m *Machine, _ *isa.Inst) error {
	m.halted = true
	return nil
}

func hOut(m *Machine, _ *isa.Inst) error {
	m.Output = append(m.Output, m.popU())
	return nil
}

// Locals. Predecode folded the fast forms' index into Arg. A word the
// running frame's bank shadows is one test of the lfBank register away;
// frameLoad and frameStore take every other case.

func hLoadLocal(m *Machine, in *isa.Inst) error {
	m.metrics.LocalVarRefs++
	off := image.FrameHeaderWords + int(in.Arg)
	if b := m.lfBank; b >= 0 && off < m.cfg.BankWords {
		m.metrics.BankHits++
		m.pushU(m.banks.Read(b, off))
		return nil
	}
	m.pushU(m.frameLoad(m.lf, off))
	return nil
}

func hStoreLocal(m *Machine, in *isa.Inst) error {
	m.metrics.LocalVarRefs++
	off := image.FrameHeaderWords + int(in.Arg)
	if b := m.lfBank; b >= 0 && off < m.cfg.BankWords {
		m.metrics.BankHits++
		m.banks.Write(b, off, m.popU())
		return nil
	}
	m.frameStore(m.lf, off, m.popU())
	return nil
}

func hLocalAddr(m *Machine, in *isa.Inst) error {
	m.localAddress(int(in.Arg))
	return nil
}

// Globals (word 0,1 of the global frame hold the code base).

func hLoadGlobal(m *Machine, in *isa.Inst) error {
	m.metrics.GlobalVarRefs++
	m.pushU(m.read(m.gf + 2 + mem.Addr(in.Arg)))
	return nil
}

func hStoreGlobal(m *Machine, in *isa.Inst) error {
	m.metrics.GlobalVarRefs++
	m.write(m.gf+2+mem.Addr(in.Arg), m.popU())
	return nil
}

// Literals: LIN1 and LI0..LI7 carry their value in Arg after folding.

func hLit(m *Machine, in *isa.Inst) error {
	m.pushU(mem.Word(in.Arg))
	return nil
}

// Arithmetic and logic. pop2U pops the two operands of a binary operation.

func (m *Machine) pop2U() (a, b mem.Word) {
	b = m.popU()
	a = m.popU()
	return
}

func hAdd(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(isa.Add(a, b))
	return nil
}

func hSub(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(isa.Sub(a, b))
	return nil
}

func hMul(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(isa.Mul(a, b))
	return nil
}

func hDiv(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	v, ok := isa.Div(a, b)
	if !ok {
		return m.divZero()
	}
	m.pushU(v)
	return nil
}

func hMod(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	v, ok := isa.Mod(a, b)
	if !ok {
		return m.divZero()
	}
	m.pushU(v)
	return nil
}

// divZero routes a division by zero: to the trap handler when one is
// installed (the handler context now runs; its results will land on the
// stack exactly where this operation's result would have), the default
// result 0 otherwise. The default push stays checked: it follows a
// Go-level trap hook, which may have moved the stack.
func (m *Machine) divZero() error {
	handled, err := m.trapXfer(TrapDivZero)
	if err != nil {
		return err
	}
	if handled {
		return nil
	}
	return m.push(0)
}

func hNeg(m *Machine, _ *isa.Inst) error {
	m.pushU(isa.Neg(m.popU()))
	return nil
}

func hAnd(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(a & b)
	return nil
}

func hOr(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(a | b)
	return nil
}

func hXor(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(a ^ b)
	return nil
}

func hNot(m *Machine, _ *isa.Inst) error {
	m.pushU(^m.popU())
	return nil
}

func hShl(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(isa.Shl(a, b))
	return nil
}

func hShr(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(isa.Shr(a, b))
	return nil
}

// Stack manipulation.

func hDup(m *Machine, _ *isa.Inst) error {
	v := m.popU()
	m.pushU(v)
	m.pushU(v)
	return nil
}

func hPop(m *Machine, _ *isa.Inst) error {
	m.popU()
	return nil
}

func hExch(m *Machine, _ *isa.Inst) error {
	a, b := m.pop2U()
	m.pushU(b)
	m.pushU(a)
	return nil
}

// Memory through pointers.

func hLdind(m *Machine, _ *isa.Inst) error {
	m.metrics.PointerRefs++
	m.pushU(m.read(m.popU()))
	return nil
}

func hStind(m *Machine, _ *isa.Inst) error {
	m.metrics.PointerRefs++
	a := m.popU()
	m.write(a, m.popU())
	return nil
}

func hReadField(m *Machine, in *isa.Inst) error {
	m.metrics.PointerRefs++
	m.pushU(m.read(m.popU() + mem.Addr(in.Arg)))
	return nil
}

func hWriteField(m *Machine, in *isa.Inst) error {
	m.metrics.PointerRefs++
	p := m.popU()
	m.write(p+mem.Addr(in.Arg), m.popU())
	return nil
}

// Jumps: the absolute target was computed at predecode time.

func hJump(m *Machine, in *isa.Inst) error {
	m.pc = in.Target
	m.cycles += CycRefill
	return nil
}

func hJumpZero(m *Machine, in *isa.Inst) error {
	if m.popU() == 0 {
		m.pc = in.Target
		m.cycles += CycRefill
	}
	return nil
}

func hJumpNonzero(m *Machine, in *isa.Inst) error {
	if m.popU() != 0 {
		m.pc = in.Target
		m.cycles += CycRefill
	}
	return nil
}

func hCompareJump(m *Machine, in *isa.Inst) error {
	a, b := m.pop2U()
	if isa.Compare(in.Op, a, b) {
		m.pc = in.Target
		m.cycles += CycRefill
	}
	return nil
}

// Calls and transfers. The fast forms' slot was folded into Arg.

func hExternalCall(m *Machine, in *isa.Inst) error { return m.externalCall(int(in.Arg)) }

func hLocalCall(m *Machine, in *isa.Inst) error { return m.localCall(int(in.Arg)) }

// hDirectCall is the engine's counterpart of the paper's fastest transfer:
// with the inline header pre-read at predecode time, entering the callee
// needs no decode work and no code reads at all. A header outside the code
// space falls back to directCall, which reproduces the exact out-of-range
// error the byte-decoding engine raised.
func hDirectCall(m *Machine, in *isa.Inst) error {
	if !in.CallOK {
		return m.directCall(in.Target)
	}
	m.snapshot()
	return m.enterProc(mem.Addr(in.GF), 0, false, in.Target+isa.HeaderSkip, int(in.FSI), KindDirectCall)
}

func hReturn(m *Machine, _ *isa.Inst) error {
	m.snapshot()
	return m.doReturn()
}

func hXfer(m *Machine, _ *isa.Inst) error {
	ctx, err := m.pop()
	if err != nil {
		return err
	}
	m.snapshot()
	if err := m.xferOut(); err != nil {
		return err
	}
	return m.xferIn(ctx, KindXfer)
}

func hCocreate(m *Machine, _ *isa.Inst) error { return m.doCocreate(m.popU()) }

func hLoadRetCtx(m *Machine, _ *isa.Inst) error {
	m.pushU(m.retCtx)
	return nil
}

func hLoadFrame(m *Machine, _ *isa.Inst) error {
	m.pushU(image.FramePtr(m.lf))
	return nil
}

func hRetain(m *Machine, _ *isa.Inst) error {
	m.heap.SetFlag(m.lf, frames.FlagRetained)
	m.curRet = true
	return nil
}

func hFree(m *Machine, _ *isa.Inst) error { return m.doFree(m.popU()) }

// Heap access for long records and retained storage.

func hAllocFrame(m *Machine, in *isa.Inst) error {
	lf, err := m.heap.Alloc(int(in.Arg))
	if err != nil {
		return m.allocTrap(err)
	}
	m.pushU(image.FramePtr(lf))
	return nil
}

func hFreeFrame(m *Machine, _ *isa.Inst) error { return m.heap.Free(mem.Addr(m.popU())) }

func hTrap(m *Machine, in *isa.Inst) error {
	handled, err := m.trapXfer(int(in.Arg))
	if err != nil {
		return err
	}
	if !handled {
		// A Go-level handler resolved the trap; supply the default
		// result so the stack discipline holds.
		return m.push(0)
	}
	return nil
}

func hSetTrap(m *Machine, _ *isa.Inst) error {
	m.trapCtx = m.popU()
	return nil
}

// externalCall is the §5.1 EXTERNALCALL: the link vector hangs below the
// global frame, so one reference yields the destination context.
func (m *Machine) externalCall(slot int) error {
	m.snapshot()
	ctx := m.read(m.gf - 1 - mem.Addr(slot)) // LV entry
	if image.IsProc(ctx) {
		gf, cb, entry, fsi, err := m.resolveProc(ctx)
		if err != nil {
			return err
		}
		return m.enterProc(gf, cb, true, entry, fsi, KindExternalCall)
	}
	// The link vector may hold any context (F3): fall back to a general
	// transfer.
	if err := m.xferOut(); err != nil {
		return err
	}
	return m.xferIn(ctx, KindXfer)
}

// localCall is the §5.1 LOCALCALL: same environment and code base, one
// level of indirection (the entry vector).
func (m *Machine) localCall(ev int) error {
	m.snapshot()
	if err := m.ensureCodeBase(); err != nil {
		return err
	}
	evOff, err := m.codeRead16(m.codeBase + uint32(2*ev))
	if err != nil {
		return err
	}
	fsib, err := m.codeRead8(m.codeBase + uint32(evOff))
	if err != nil {
		return err
	}
	return m.enterProc(m.gf, m.codeBase, true, m.codeBase+uint32(evOff)+1, int(fsib), KindLocalCall)
}

// directCall is the §6 DIRECTCALL/SHORTDIRECTCALL general path, kept for
// headers predecode could not resolve: the callee's global frame and frame
// size index sit inline at the target, prefetched by the IFU, so the
// transfer needs no data references to find its destination.
func (m *Machine) directCall(hdr uint32) error {
	m.snapshot()
	gfw, err := m.codePeek16(hdr)
	if err != nil {
		return err
	}
	fsib, err := m.codePeek8(hdr + 2)
	if err != nil {
		return err
	}
	return m.enterProc(mem.Addr(gfw), 0, false, hdr+3, int(fsib), KindDirectCall)
}

// localAddress implements LAB (§7.4): constructing a pointer to a local
// rules out keeping the frame in a register bank, so the bank is flushed
// and released and the frame flagged.
func (m *Machine) localAddress(n int) {
	if b := m.lfBank; b >= 0 {
		m.flushBank(m.banks.Get(b))
		m.banks.Release(b)
		m.lfBank = -1
		m.metrics.PointerFlushes++
	}
	m.heap.SetFlag(m.lf, frames.FlagPointers)
	m.pushU(m.lf + mem.Addr(image.FrameHeaderWords+n))
}
