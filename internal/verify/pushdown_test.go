package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/verify"
	"repro/internal/workload"
)

// findOp walks the predecoded entry procedure and returns the pc of the
// n-th occurrence of op.
func findOp(t *testing.T, prog *image.Program, op isa.Op, n int) uint32 {
	t.Helper()
	insts, _ := isa.Predecode(prog.Code)
	pc := prog.Instances[0].ProcEntryPC(0)
	for pc < uint32(len(insts)) && insts[pc].Valid() {
		if insts[pc].Op == op {
			if n == 0 {
				return pc
			}
			n--
		}
		pc += uint32(insts[pc].Size)
	}
	t.Fatalf("opcode %s (occurrence %d) not found from entry", op, n)
	return 0
}

// checkTransferShape builds src under both linkages and requires it to be
// admitted with an unproven stack and a want Warn: a transfer outside
// call/return structure leaves the resumption depth unknown, so the
// machines that run the program test the stack window.
func checkTransferShape(t *testing.T, name, mod, src string, want verify.Reason) {
	t.Helper()
	w := &workload.Program{Name: name, Sources: map[string]string{mod: src}, Module: mod, Proc: "main"}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if r.CertStackBounds || !hasReason(r.Warnings(), want) {
			t.Errorf("early=%v: want an unproven stack with a %s Warn:\n%s", early, want, r)
		}
	}
}

// A coroutine pair — create, bidirectional transfers, free — is admitted;
// each transfer resumes at a depth the interval pass cannot know.
func TestCoroutineCertified(t *testing.T) {
	checkTransferShape(t, "coroutine", "com", `
module com;
proc prod(start) {
  var who = retctx();
  var v = start;
  while (1) {
    transfer(who, v & 0x3FFF);
    v = v + 3;
  }
}
proc main() {
  var co = cocreate(prod);
  var a = transfer(co, 1);
  var b = transfer(co, 0);
  free(co);
  return (a + b) & 0x7FFF;
}
`, verify.ReasonDynamicTransfer)
}

// A program that arms a trap handler and takes both explicit and
// divide-by-zero traps is admitted; trap dispatch is a dynamic transfer.
func TestTrapHandlerCertified(t *testing.T) {
	checkTransferShape(t, "trap-handler", "trapm", `
module trapm;
proc th(code) {
  return (code * 3 + 1) & 0xFFF;
}
proc main(n) {
  settrap(th);
  var acc = trap(7);
  acc = (acc + (100 / (n & 3))) & 0x7FFF;
  return acc;
}
`, verify.ReasonDynamicTransfer)
}

// A keeper that retains its frame and hands its context to the caller, who
// frees it later, is admitted; the FREE of a context value is an
// unsafe-free Warn.
func TestRetainedKeeperCertified(t *testing.T) {
	checkTransferShape(t, "retained-keeper", "keep", `
module keep;
proc keeper(x) {
  var t = (x * 2 + 1) & 0xFFF;
  retain();
  return myctx(), t;
}
proc main() {
  var kc, kv;
  kc, kv = keeper(21);
  free(kc);
  return kv;
}
`, verify.ReasonUnsafeFree)
}

// A 70-procedure program, past the width of any per-procedure bit set,
// whose every procedure allocates, stores into and frees a record is
// admitted with the heap-store Warn.
func TestManyProcsCertified(t *testing.T) {
	const procs = 70
	var sb strings.Builder
	sb.WriteString("module big;\n")
	for i := 0; i < procs-1; i++ {
		next := fmt.Sprintf("p%d", i+1)
		if i == procs-2 {
			next = "last"
		}
		fmt.Fprintf(&sb, `proc p%d(x) {
  var a = alloc(4);
  store(a, x);
  var v = load(a);
  dealloc(a);
  return v + %s(x);
}
`, i, next)
	}
	sb.WriteString("proc last(x) { return x; }\nproc main(n) { return p0(n); }\n")
	checkTransferShape(t, "many-procs", "big", sb.String(), verify.ReasonHeapStore)
}

// A statically resolved XFERO to a procedure descriptor is admitted, and
// the transfer is a may-edge of the call graph.
func TestXferDescriptorChainCertified(t *testing.T) {
	var a image.Asm
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.XFERO)
	a.Emit(isa.POP)
	a.Emit(isa.HALT)
	var b image.Asm
	b.Emit(isa.LI3)
	b.Emit(isa.RET)
	m := &image.Module{Name: "x", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "t", NumResults: 1, Body: b.Fragment()},
	}}
	prog := linkOne(t, m, "main")
	r := verify.Program(prog)
	if !r.Admitted() {
		t.Fatalf("descriptor XFERO rejected:\n%s", r)
	}
	xferPC := findOp(t, prog, isa.XFERO, 0)
	var sawEdge bool
	for _, e := range r.Calls {
		if e.FromPC == xferPC && e.Kind == verify.EdgeMay {
			sawEdge = true
		}
	}
	if !sawEdge {
		t.Errorf("no may-edge at the XFERO pc %06x:\n%s", xferPC, r)
	}
}

// Dropping the retain() makes the same shape unsound — the caller would
// free an already-reclaimed frame — so the free must cost the certificate
// with the unsafe-free reason, while the program stays admitted.
func TestUnretainedKeeperUncertified(t *testing.T) {
	w := &workload.Program{
		Name: "keep-bad",
		Sources: map[string]string{"keep": `
module keep;
proc keeper(x) {
  var t = (x * 2 + 1) & 0xFFF;
  return myctx(), t;
}
proc main() {
  var kc, kv;
  kc, kv = keeper(21);
  free(kc);
  return kv;
}
`},
		Module: "keep", Proc: "main",
	}
	r := verify.Program(buildWorkload(t, w, false))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("unretained keeper free wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonUnsafeFree) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonUnsafeFree, r)
	}
}

// coMismatch builds a coroutine pair whose two resume depths differ: the
// producer is started empty (cross-depth 0) but later resumed with two
// carried words, so its post-transfer POP may underflow.
func TestResumeDepthMismatchUncertified(t *testing.T) {
	var a image.Asm // main
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.COCREATE)
	a.Emit(isa.SL0)
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // start embryo, cross-depth 0
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // resume at depth 3: cross-depth 2
	a.Emit(isa.HALT)
	var b image.Asm // prod
	b.Emit(isa.LRC)
	b.Emit(isa.SL0)
	b.Emit(isa.LI5)
	b.Emit(isa.LI5)
	b.Emit(isa.LL0)
	b.Emit(isa.XFERO) // transfer two words back, cross-depth 2
	b.Emit(isa.POP)   // resume depth is [0,2]: may underflow
	b.Emit(isa.HALT)
	m := &image.Module{Name: "mm", Procs: []*image.Proc{
		{Name: "main", NumLocals: 1, Body: a.Fragment()},
		{Name: "prod", NumLocals: 4, Body: b.Fragment()},
	}}
	r := verify.Program(linkOne(t, m, "main"))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("mismatched resume depths wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeUnderflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeUnderflow, r)
	}
}

// A transfer that carries twelve words into a frame that then pushes two
// more crosses the 13-word line: admitted (the checked machine catches it)
// but uncertified with maybe-overflow.
func TestXferDeepCarryUncertified(t *testing.T) {
	var a image.Asm // main
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.COCREATE)
	a.Emit(isa.SL0)
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // start embryo, cross-depth 0
	for i := 0; i < 12; i++ {
		a.Emit(isa.LI1)
	}
	a.Emit(isa.LL0)
	a.Emit(isa.XFERO) // resume with twelve carried words
	a.Emit(isa.HALT)
	var b image.Asm // prod
	b.Emit(isa.LRC)
	b.Emit(isa.SL0)
	b.Emit(isa.LL0)
	b.Emit(isa.XFERO) // hand control back, cross-depth 0
	b.Emit(isa.LI1)   // resume depth is [0,12]: two pushes may overflow
	b.Emit(isa.LI1)
	b.Emit(isa.HALT)
	m := &image.Module{Name: "md", Procs: []*image.Proc{
		{Name: "main", NumLocals: 1, Body: a.Fragment()},
		{Name: "prod", NumLocals: 12, Body: b.Fragment()},
	}}
	r := verify.Program(linkOne(t, m, "main"))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("deep-carry transfer wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeOverflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeOverflow, r)
	}
}

// A re-entrant handler that traps again and returns many results can push
// a deep trapper past the stack on restore: admitted, uncertified with
// maybe-overflow, and the armed TRAPB is a may-edge.
func TestTrapRestoreOverflowUncertified(t *testing.T) {
	var a image.Asm // main
	a.EmitLoadLocalDesc(1)
	a.Emit(isa.STRAP)
	a.Emit(isa.LI1)
	a.Emit(isa.LI1)
	a.Emit(isa.TRAPB, 5) // restore depth 2 + [11,13] crosses 13
	a.Emit(isa.HALT)
	var b image.Asm // handler: traps again, returns eleven words
	b.Emit(isa.TRAPB, 9)
	for i := 0; i < 10; i++ {
		b.Emit(isa.LI1)
	}
	b.Emit(isa.RET)
	m := &image.Module{Name: "rt", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "handler", NumArgs: 1, NumLocals: 1, NumResults: 11, Body: b.Fragment()},
	}}
	prog := linkOne(t, m, "main")
	r := verify.Program(prog)
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("re-entrant trap restore wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeOverflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeOverflow, r)
	}
	trapPC := findOp(t, prog, isa.TRAPB, 0)
	var sawTrapEdge bool
	for _, e := range r.Calls {
		if e.FromPC == trapPC {
			if e.Kind != verify.EdgeMay {
				t.Errorf("edge at armed TRAPB has kind %s, want %s", e.Kind, verify.EdgeMay)
			}
			sawTrapEdge = true
		}
	}
	if !sawTrapEdge {
		t.Errorf("no may-edge at armed TRAPB pc %06x:\n%s", trapPC, r)
	}
}

// Recursion whose every level returns one more word than the last grows
// the result stack without bound: the summary widens to the stack limit
// and the program is admitted but uncertified with maybe-overflow.
func TestNetPushRecursionUncertified(t *testing.T) {
	var a image.Asm // main
	a.Emit(isa.LI3)
	a.EmitCallLocal(1)
	a.Emit(isa.HALT)
	var b image.Asm // r(n): n==0 -> 1 word; else r(n-1) plus one more
	base := b.NewLabel()
	b.Emit(isa.LL0)
	b.EmitJump(isa.JZB, base)
	b.Emit(isa.LL0)
	b.Emit(isa.LI1)
	b.Emit(isa.SUB)
	b.EmitCallLocal(1)
	b.Emit(isa.LI1)
	b.Emit(isa.RET)
	b.Bind(base)
	b.Emit(isa.LI1)
	b.Emit(isa.RET)
	m := &image.Module{Name: "np", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "r", NumArgs: 1, NumLocals: 1, Body: b.Fragment()},
	}}
	r := verify.Program(linkOne(t, m, "main"))
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if r.CertStackBounds {
		t.Fatalf("net-push recursion wrongly certified:\n%s", r)
	}
	if !hasReason(r.Diags, verify.ReasonMaybeOverflow) {
		t.Errorf("missing %s diagnostic:\n%s", verify.ReasonMaybeOverflow, r)
	}
	for _, d := range r.Diags {
		if d.Cert && d.Reason != verify.ReasonMaybeOverflow {
			t.Errorf("unexpected stack-blocking diagnostic %s", d)
		}
	}
}

// An unarmed TRAPB contributes no call-graph edge and cannot poison
// neighbouring call sites: a resolved local call stays an EdgeCall.
// Regression for the may-edge dedupe.
func TestUnarmedTrapbEdgesAndFusion(t *testing.T) {
	var a image.Asm // main
	a.Emit(isa.LI1)
	a.Emit(isa.TRAPB, 3) // unarmed: terminal or a marker push, never a transfer
	a.Emit(isa.POP)
	a.Emit(isa.POP)
	a.EmitCallLocal(1)
	a.Emit(isa.POP)
	a.Emit(isa.HALT)
	var b image.Asm // q
	b.Emit(isa.LI1)
	b.Emit(isa.RET)
	m := &image.Module{Name: "uf", Procs: []*image.Proc{
		{Name: "main", Body: a.Fragment()},
		{Name: "q", NumResults: 1, Body: b.Fragment()},
	}}
	prog := linkOne(t, m, "main")
	r := verify.Program(prog)
	if !r.Admitted() {
		t.Fatalf("rejected:\n%s", r)
	}
	if !r.CertStackBounds {
		t.Fatalf("unarmed TRAPB cost the certificate:\n%s", r)
	}
	trapPC := findOp(t, prog, isa.TRAPB, 0)
	callPC := findOp(t, prog, isa.LFC1, 0) // the linker picks the fast form for slot 1
	var sawCallEdge bool
	for _, e := range r.Calls {
		if e.FromPC == trapPC {
			t.Errorf("unarmed TRAPB at %06x grew a call-graph edge (kind %s)", trapPC, e.Kind)
		}
		if e.FromPC == callPC {
			if e.Kind != verify.EdgeCall {
				t.Errorf("local call at %06x has kind %s, want %s", callPC, e.Kind, verify.EdgeCall)
			}
			sawCallEdge = true
		}
	}
	if !sawCallEdge {
		t.Errorf("no EdgeCall leaves the resolved local call at %06x:\n%s", callPC, r)
	}
}
