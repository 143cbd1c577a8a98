package verify

import (
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The per-procedure summary engine. step() is the abstract transfer
// function over depth intervals; procedures are entered once in the
// canonical [0,0] context and summarized at their RETs (the result-depth
// interval), and call sites consume summaries. A summary only grows and
// requeues its waiting call sites, so the worklist converges.

// applyEffect applies a fixed stack effect at pc: possible faults are
// certificate-blocking Warns (the surviving depths continue), and a
// definite fault ends the path. Whether a fault is definite can change as
// joins widen the interval, so it is recorded here and judged against the
// final state by definiteFaults.
func (a *analyzer) applyEffect(pc uint32, d interval, pops, pushes int) (interval, bool) {
	if d.hi < pops {
		a.definite[pc] = [2]int{pops, pushes}
		return interval{}, false
	}
	if d.lo < pops {
		a.diagCert(pc, ReasonMaybeUnderflow,
			"%s pops %d with as few as %d on the stack", a.insts[pc].Op, pops, d.lo)
	}
	after := interval{d.lo - pops, d.hi - pops}
	if after.lo < 0 {
		after.lo = 0
	}
	if after.lo+pushes > maxDepth {
		a.definite[pc] = [2]int{pops, pushes}
		return interval{}, false
	}
	if after.hi+pushes > maxDepth {
		a.diagCert(pc, ReasonMaybeOverflow,
			"%s can push to depth %d past the %d-word stack", a.insts[pc].Op, after.hi+pushes, maxDepth)
		after.hi = maxDepth - pushes
	}
	after.lo += pushes
	after.hi += pushes
	return after, true
}

// definiteFaults emits the Errors for the fixed stack effects that fail
// on every path reaching their pc at the fixpoint. A site that looked
// definite only mid-fixpoint was stepped again with its wider final state,
// which recorded the possible fault as a Warn.
func (a *analyzer) definiteFaults() {
	for i := range a.code {
		pc := uint32(i)
		pp, ok := a.definite[pc]
		if !ok {
			continue
		}
		d, pops, pushes := a.state[pc], pp[0], pp[1]
		if d.hi < pops {
			a.diag(pc, LevelError, ReasonStackUnderflow,
				"%s pops %d with at most %d on the stack", a.insts[pc].Op, pops, d.hi)
		} else if lo := max(d.lo-pops, 0); lo+pushes > maxDepth {
			a.diag(pc, LevelError, ReasonStackOverflow,
				"%s pushes to depth %d past the %d-word stack", a.insts[pc].Op, lo+pushes, maxDepth)
		}
	}
}

func (a *analyzer) step(pc uint32, d interval) {
	in := &a.insts[pc]
	if !in.Valid() {
		reason := ReasonTruncated
		if isa.Op(a.code[pc]) >= isa.NumOps {
			reason = ReasonBadOpcode
		}
		a.diag(pc, LevelError, reason, "%v", in.Err(a.code, int(pc)))
		return
	}
	if r := a.regionOf[pc]; r >= 0 && d.hi > a.maxHi[r] {
		a.maxHi[r] = d.hi
	}
	op := in.Op
	next := pc + uint32(in.Size)

	switch {
	case op == isa.HALT:
		return

	case op == isa.RET:
		a.doRet(pc, d)
		return

	case op.IsJump():
		a.doJump(pc, in, d, next)
		return

	case op.IsCall():
		a.doCall(pc, in, d, next)
		return

	case op == isa.XFERO:
		a.doXfer(pc, d, next)
		return

	case op == isa.TRAPB:
		a.doTrapB(pc, d, next)
		return

	case op == isa.DIV || op == isa.MOD:
		a.doDivMod(pc, d, next)
		return
	}

	// Remaining opcodes have a fixed effect from the metadata table; some
	// also get operand sanity checks, and those the analysis cannot follow
	// withhold the certificate.
	info := isa.InfoOf(op)
	if info.Pops < 0 || info.Pushes < 0 {
		// Defensive: a variable effect not handled above.
		a.diagCert(pc, ReasonDynamicTransfer, "%s has a state-dependent stack effect", op)
		a.propagate(pc, next, top)
		return
	}
	switch {
	case op >= isa.LL0 && op <= isa.LAB:
		a.checkLocal(pc, in)
	case op >= isa.LG0 && op <= isa.SGB:
		a.checkGlobal(pc, in)
	case op == isa.AFB:
		if int(in.Arg) >= len(a.p.FrameSizes) {
			a.diag(pc, LevelError, ReasonBadFrameSize,
				"AFB class %d outside the %d-class frame-size table", in.Arg, len(a.p.FrameSizes))
			return
		}
	case op == isa.STRAP:
		a.sawStrap = true
		a.diagCert(pc, ReasonDynamicTransfer, "STRAP installs a dynamic trap handler")
		a.mayEdge(pc)
	case op == isa.COCREATE:
		a.diagCert(pc, ReasonDynamicTransfer, "COCREATE constructs a coroutine context resumed outside call/return structure")
		a.mayEdge(pc)
	case op == isa.FREE || op == isa.FFREE:
		a.diagCert(pc, ReasonUnsafeFree, "%s releases a context the verifier cannot track", op)
	case op == isa.STIND || op == isa.WFB:
		a.diagCert(pc, ReasonHeapStore,
			"%s stores through an arbitrary pointer and can reach frame or table linkage", op)
	}
	after, ok := a.applyEffect(pc, d, int(info.Pops), int(info.Pushes))
	if !ok {
		return
	}
	a.propagate(pc, next, after)
}

// checkLocal bounds local-variable accesses against the procedure's frame
// class. A load past the frame reads a neighbouring heap word (garbage but
// harmless); a store there corrupts the neighbour, so it blocks the
// certificate.
func (a *analyzer) checkLocal(pc uint32, in *isa.Inst) {
	r := a.regionOf[pc]
	if r < 0 || a.regions[r].fsi >= len(a.p.FrameSizes) {
		return
	}
	payload := a.p.FrameSizes[a.regions[r].fsi]
	off := image.FrameHeaderWords + int(in.Arg)
	if off < payload {
		return
	}
	op := in.Op
	store := (op >= isa.SL0 && op <= isa.SL7) || op == isa.SLB
	if store {
		a.diagCert(pc, ReasonLocalRange,
			"%s local %d: word %d of a %d-word frame (class %d)", op, in.Arg, off, payload, a.regions[r].fsi)
	} else {
		a.diag(pc, LevelWarn, ReasonLocalRange,
			"%s local %d: word %d of a %d-word frame (class %d)", op, in.Arg, off, payload, a.regions[r].fsi)
	}
}

// checkGlobal bounds global accesses against the module's declared global
// count; a store past it lands in the neighbouring link vector or frame.
func (a *analyzer) checkGlobal(pc uint32, in *isa.Inst) {
	r := a.regionOf[pc]
	if r < 0 {
		return
	}
	ng := a.regions[r].inst.Module.NumGlobals
	if int(in.Arg) < ng {
		return
	}
	if in.Op == isa.SGB {
		a.diagCert(pc, ReasonGlobalRange,
			"SGB global %d of %d in module %s", in.Arg, ng, a.regions[r].inst.Module.Name)
	} else {
		a.diag(pc, LevelWarn, ReasonGlobalRange,
			"%s global %d of %d in module %s", in.Op, in.Arg, ng, a.regions[r].inst.Module.Name)
	}
}

func (a *analyzer) doJump(pc uint32, in *isa.Inst, d interval, next uint32) {
	info := isa.InfoOf(in.Op)
	after, ok := a.applyEffect(pc, d, int(info.Pops), 0)
	if !ok {
		return
	}
	t := in.Target
	if int64(t) >= int64(len(a.code)) || !a.insts[t].Valid() {
		a.diag(pc, LevelError, ReasonBadJumpTarget,
			"%s to %06x: no instruction decodes there", in.Op, t)
	} else {
		if !a.boundary[t] {
			a.diag(pc, LevelWarn, ReasonJumpIntoOperands,
				"%s lands at %06x, inside another instruction's operand bytes", in.Op, t)
		}
		a.propagate(pc, t, after)
	}
	if in.Op != isa.JB && in.Op != isa.JW {
		a.propagate(pc, next, after) // conditional: may fall through
	}
}

// doRet folds the depth at a RET into its procedure's result summary and
// requeues every call site waiting on it.
func (a *analyzer) doRet(pc uint32, d interval) {
	r := a.regionOf[pc]
	if r < 0 {
		a.diagCert(pc, ReasonCrossProcFlow, "RET outside any procedure; its result depth cannot be attributed")
		return
	}
	if a.sumOK[r] {
		j := a.sum[r].join(d)
		if j == a.sum[r] {
			return
		}
		a.sum[r] = j
	} else {
		a.sumOK[r] = true
		a.sum[r] = d
	}
	for _, site := range a.deps[r] {
		a.enqueue(site)
	}
}

func (a *analyzer) doCall(pc uint32, in *isa.Inst, d interval, next uint32) {
	op := in.Op
	r := a.regionOf[pc]
	var entry uint32
	var fsi int
	var ok bool

	switch {
	case op.IsExternalCall():
		if r < 0 {
			a.diagCert(pc, ReasonIrregularCall, "external call outside any procedure")
			a.mayEdge(pc)
			a.propagate(pc, next, top)
			return
		}
		inst := a.regions[r].inst
		slot := int(in.Arg)
		ctx, present := a.data[inst.GF-1-mem.Addr(slot)]
		if !present || ctx == 0 {
			// The machine XFERs to NIL: the computation halts there.
			a.diagCert(pc, ReasonUnresolvedLink,
				"link vector slot %d of %s is empty", slot, inst.Module.Name)
			a.mayEdge(pc)
			return
		}
		if !image.IsProc(ctx) {
			// The F3 fallback: xferOut plus a transfer to whatever the slot
			// holds.
			a.diagCert(pc, ReasonUnresolvedLink,
				"link vector slot %d of %s holds %04x, not a procedure descriptor", slot, inst.Module.Name, ctx)
			a.mayEdge(pc)
			a.propagate(pc, next, top)
			return
		}
		entry, fsi, ok = a.resolveDescriptor(pc, ctx, ReasonBadDescriptor, "")

	case op.IsLocalCall():
		if r < 0 {
			a.diagCert(pc, ReasonIrregularCall, "local call outside any procedure")
			a.mayEdge(pc)
			a.propagate(pc, next, top)
			return
		}
		inst := a.regions[r].inst
		if ev := int(in.Arg); ev >= len(inst.EVOffsets) {
			a.diag(pc, LevelError, ReasonBadEntryVector,
				"%s entry %d past the %d-slot entry vector of %s", op, ev, len(inst.EVOffsets), inst.Module.Name)
			return
		}
		entry, fsi, ok = a.resolveEntry(pc, inst.CodeBase, int(in.Arg), ReasonBadEntryVector, "")

	default: // DCALL / SDCALL
		if !in.CallOK {
			a.diag(pc, LevelError, ReasonBadCallHeader,
				"%s header at %06x lies outside the %d-byte code space", op, in.Target, len(a.code))
			return
		}
		entry = in.Target + isa.HeaderSkip
		fsi = int(in.FSI)
		if int64(entry) >= int64(len(a.code)) || !a.insts[entry].Valid() {
			a.diag(pc, LevelError, ReasonBadCallHeader,
				"%s entry %06x does not decode", op, entry)
			return
		}
		if fsi >= len(a.p.FrameSizes) {
			a.diag(pc, LevelError, ReasonBadFrameSize,
				"%s header class %d outside the %d-class frame-size table", op, fsi, len(a.p.FrameSizes))
			return
		}
		ok = true
	}
	if !ok {
		return
	}
	a.finishCall(pc, next, d, entry, fsi)
}

// finishCall wires a resolved call site: the arg-record fit check, the
// call edge, and the interprocedural fall-through (the callee's summary
// becomes the caller's state after the call).
func (a *analyzer) finishCall(pc, next uint32, d interval, entry uint32, fsi int) {
	a.edge(pc, entry, EdgeCall)
	if payload := a.p.FrameSizes[fsi]; image.FrameHeaderWords+d.hi > payload {
		a.diagCert(pc, ReasonArgOverrun,
			"call can carry %d stack words into a %d-word frame (class %d)", d.hi, payload, fsi)
	}
	cr, isEntry := a.entryRegion[entry]
	if !isEntry {
		// The target decodes but is not a procedure entry the linker laid
		// out: its RETs cannot be attributed, so its result depth is
		// unknown.
		a.diagCert(pc, ReasonIrregularCall,
			"call target %06x is not a linked procedure entry", entry)
		a.joinInto(entry, entryDepth)
		a.propagate(pc, next, top)
		return
	}
	a.callEntered[cr] = true
	a.joinInto(entry, entryDepth)
	key := uint64(cr)<<32 | uint64(pc)
	if !a.depSeen[key] {
		a.depSeen[key] = true
		a.deps[cr] = append(a.deps[cr], pc)
	}
	if a.sumOK[cr] {
		a.propagate(pc, next, a.sum[cr])
	}
	// Summary still unknown: the callee provably never returns (yet); the
	// fall-through stays unreached until a RET appears.
}

// doXfer is XFERO: target and resumption stack unknown, so the frame
// resumes with whatever a later transfer into it carries.
func (a *analyzer) doXfer(pc uint32, d interval, next uint32) {
	if _, ok := a.applyEffect(pc, d, 1, 0); !ok {
		return
	}
	a.diagCert(pc, ReasonDynamicTransfer, "XFERO target and resumption stack are unknown")
	a.mayEdge(pc)
	a.propagate(pc, next, top)
}

// doTrapB: with no reachable STRAP a TRAPB goes to the Go-level hook,
// which pushes one word; once a handler can be armed, its RETURN restores
// the trapper's operands beneath the handler's results — at least d.lo
// words, at most a full stack.
func (a *analyzer) doTrapB(pc uint32, d interval, next uint32) {
	if a.trapsPossible {
		a.mayEdge(pc)
		a.propagate(pc, next, interval{d.lo, maxDepth})
		return
	}
	if after, ok := a.applyEffect(pc, d, 0, 1); ok {
		a.propagate(pc, next, after)
	}
}

// doDivMod: division by zero traps like TRAPB, the handler's results
// replacing the quotient.
func (a *analyzer) doDivMod(pc uint32, d interval, next uint32) {
	after, ok := a.applyEffect(pc, d, 2, 1)
	if !ok {
		return
	}
	if a.trapsPossible {
		a.propagate(pc, next, interval{after.lo - 1, maxDepth})
		return
	}
	a.propagate(pc, next, after)
}
