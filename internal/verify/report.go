package verify

import (
	"fmt"
	"sort"
	"strings"
)

// Level grades a diagnostic.
type Level uint8

// Diagnostic levels. An Error marks a pc where execution, if it reaches
// the pc, definitely fails or definitely corrupts machine state — the
// verifier rejects the program. A Warn marks something the verifier cannot
// prove safe (a possible stack fault, a dynamic transfer it cannot trace);
// the program is still admitted.
const (
	LevelWarn Level = iota
	LevelError
)

// String names the level.
func (l Level) String() string {
	if l == LevelError {
		return "error"
	}
	return "warn"
}

// Reason is a stable machine-readable code for a diagnostic.
type Reason string

// Reason codes.
const (
	// ReasonBadOpcode: a reachable pc holds an undefined opcode byte.
	ReasonBadOpcode Reason = "bad-opcode"
	// ReasonTruncated: a reachable instruction's operand bytes run past
	// the end of the code space.
	ReasonTruncated Reason = "truncated"
	// ReasonFallOffEnd: execution can fall past the last code byte.
	ReasonFallOffEnd Reason = "fall-off-end"
	// ReasonBadJumpTarget: a jump's target is outside the code space or
	// lands on a byte where no instruction decodes.
	ReasonBadJumpTarget Reason = "bad-jump-target"
	// ReasonJumpIntoOperands: a jump target decodes, but is not on the
	// instruction boundary stream of its procedure — it lands inside
	// another instruction's operand bytes and executes a shadow stream.
	ReasonJumpIntoOperands Reason = "jump-into-operands"
	// ReasonStackUnderflow / ReasonStackOverflow: the instruction's stack
	// effect fails on every path that reaches it.
	ReasonStackUnderflow Reason = "stack-underflow"
	ReasonStackOverflow  Reason = "stack-overflow"
	// ReasonMaybeUnderflow / ReasonMaybeOverflow: the effect fails on some
	// abstract path; the verifier cannot certify the stack bounds.
	ReasonMaybeUnderflow Reason = "maybe-underflow"
	ReasonMaybeOverflow  Reason = "maybe-overflow"
	// ReasonBadDescriptor: a procedure descriptor does not resolve —
	// its gfi has no GFT entry, or its entry index points past the entry
	// vector of the instance it names.
	ReasonBadDescriptor Reason = "bad-descriptor"
	// ReasonBadEntryVector: a local call's entry-vector slot reads outside
	// the code space or yields an entry that does not decode.
	ReasonBadEntryVector Reason = "bad-entry-vector"
	// ReasonBadCallHeader: a direct call's inline header lies outside the
	// code space, or the entry behind it does not decode.
	ReasonBadCallHeader Reason = "bad-call-header"
	// ReasonBadFrameSize: a frame-size index is not a class of the
	// program's frame-size table.
	ReasonBadFrameSize Reason = "bad-frame-size"
	// ReasonGlobalRange: a global access indexes past the module's
	// globals (a store there corrupts the neighbouring link vector).
	ReasonGlobalRange Reason = "global-out-of-range"
	// ReasonLocalRange: a local access indexes past the procedure's frame
	// class (a store there corrupts the neighbouring heap block).
	ReasonLocalRange Reason = "local-out-of-range"
	// ReasonArgOverrun: a call site can carry more stack words than the
	// callee's frame class holds below its size.
	ReasonArgOverrun Reason = "arg-overrun"
	// ReasonDynamicTransfer: a reachable XFERO, COCREATE or STRAP — a
	// transfer outside call/return structure, so a may-edge whose
	// resumption depth is unknown.
	ReasonDynamicTransfer Reason = "dynamic-transfer"
	// ReasonUnsafeFree: a reachable FREE or FFREE — the analysis does not
	// track which context is released, so a live frame may be torn down.
	ReasonUnsafeFree Reason = "unsafe-free"
	// ReasonHeapStore: a reachable STIND or WFB — a raw store that can
	// rewrite frame words, saved pcs or table linkage, invalidating every
	// static fact downstream.
	ReasonHeapStore Reason = "heap-store"
	// ReasonUnresolvedLink: an external call's link-vector slot is not a
	// statically known procedure descriptor.
	ReasonUnresolvedLink Reason = "unresolved-link"
	// ReasonCrossProcFlow: a jump or fall-through crosses a procedure
	// boundary, so return depths cannot be attributed to one procedure.
	ReasonCrossProcFlow Reason = "cross-proc-flow"
	// ReasonIrregularCall: a call target is not a procedure entry the
	// linker laid out, so its result depth is unknown.
	ReasonIrregularCall Reason = "irregular-call"
)

// Diag is one per-pc diagnostic.
type Diag struct {
	PC     uint32
	Proc   string // "Module.proc" owning the pc, when known
	Level  Level
	Reason Reason
	Msg    string
	// Cert marks a Warn that withholds Report.CertStackBounds.
	Cert bool
}

// String renders the diagnostic one per line, fpcdis-style.
func (d Diag) String() string {
	where := d.Proc
	if where == "" {
		where = "?"
	}
	return fmt.Sprintf("%s: pc %06x (%s): %s: %s", d.Level, d.PC, where, d.Reason, d.Msg)
}

// ProcInfo is the per-procedure summary the analysis computed.
type ProcInfo struct {
	Name  string
	Entry uint32
	// MaxDepth is the largest possible evaluation-stack depth at any pc of
	// the procedure (upper bound); -1 when the body was never reached.
	MaxDepth int
	// ResultLo/ResultHi bound the stack depth at the procedure's returns —
	// its result arity interval. Both are -1 when no RET was reached (the
	// procedure provably never returns normally).
	ResultLo, ResultHi int
	// Called: the procedure is the target of a resolved static call.
	Called bool
}

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

// Edge kinds. EdgeCall is an ordinary call with a statically resolved
// callee; EdgeMay an edge whose target is unknown (a transfer, a trap
// dispatch or an unresolved link).
const (
	EdgeCall EdgeKind = iota
	EdgeMay
)

// String names the edge kind.
func (k EdgeKind) String() string {
	if k == EdgeCall {
		return "call"
	}
	return "may"
}

// CallEdge is one edge of the call graph. May mirrors Kind == EdgeMay:
// the callee is unknown, so Callee is the zero value.
type CallEdge struct {
	FromPC uint32
	Callee uint32 // callee entry pc (0 and May=true for unknown targets)
	Kind   EdgeKind
	May    bool
}

// Report is the verifier's structured result.
type Report struct {
	Diags []Diag
	Procs []ProcInfo
	Calls []CallEdge
	// Depths holds the per-pc abstract stack-depth interval [lo, hi] of
	// every reachable pc.
	Depths map[uint32][2]int
	// CertStackBounds reports that every reachable instruction provably
	// keeps the evaluation stack inside [0, isa.EvalStackDepth] and nothing
	// reachable can corrupt the linkage the proof depends on. It is
	// reported only: every machine tests the stack window before each
	// dispatch regardless.
	CertStackBounds bool
}

// Admitted reports whether the program passed verification: no Error-level
// diagnostic. An admitted program may still carry Warns.
func (r *Report) Admitted() bool {
	for _, d := range r.Diags {
		if d.Level == LevelError {
			return false
		}
	}
	return true
}

// Errors returns the Error-level diagnostics.
func (r *Report) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Level == LevelError {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns the Warn-level diagnostics.
func (r *Report) Warnings() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Level == LevelWarn {
			out = append(out, d)
		}
	}
	return out
}

// DepthAt reports the abstract stack-depth bounds at pc; ok is false when
// the verifier proved pc unreachable.
func (r *Report) DepthAt(pc uint32) (lo, hi int, ok bool) {
	d, ok := r.Depths[pc]
	return d[0], d[1], ok
}

// String renders the report for logs and CLI output: the verdict, every
// diagnostic, and the per-procedure depth summary.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "admitted"
	switch {
	case !r.Admitted():
		verdict = "rejected"
	case r.CertStackBounds:
		verdict = "admitted, stack bounds proven"
	}
	fmt.Fprintf(&b, "verify: %s (%d diagnostics)\n", verdict, len(r.Diags))
	diags := append([]Diag(nil), r.Diags...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Level != diags[j].Level {
			return diags[i].Level > diags[j].Level // errors first
		}
		return diags[i].PC < diags[j].PC
	})
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	for _, p := range r.Procs {
		if p.MaxDepth < 0 {
			fmt.Fprintf(&b, "  proc %s @%06x: unreached\n", p.Name, p.Entry)
			continue
		}
		res := "never returns"
		if p.ResultLo >= 0 {
			res = fmt.Sprintf("results [%d,%d]", p.ResultLo, p.ResultHi)
		}
		called := ""
		if p.Called {
			called = " (called)"
		}
		fmt.Fprintf(&b, "  proc %s @%06x: max stack %d, %s%s\n", p.Name, p.Entry, p.MaxDepth, res, called)
	}
	return b.String()
}
