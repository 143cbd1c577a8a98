// Package verify is the link-time bytecode verifier: a static analysis
// over the predecoded instruction stream of a linked program that decides
// admission.
//
// The analysis (summary.go) is a worklist abstract interpreter computing,
// for every reachable pc, an evaluation-stack depth interval. Procedures
// are analyzed once, CFA2-style, against a canonical [0,0] entry context —
// the engine's enterProc always delivers the argument record into frame
// locals and clears the stack — and tabulated: each call site reads the
// callee's result-depth summary, so recursion converges and every call
// site sees its own return depth rather than a join over unrelated
// callers. Transfers whose target is not a static call (XFERO, COCREATE,
// STRAP) widen the stack to unknown. A program that reaches a STRAP is
// analyzed a second time with in-machine trap dispatch possible at every
// TRAPB and division.
//
// Diagnostics come in two grades. Error marks a pc where reaching it
// definitely fails or corrupts the machine — the program is rejected
// (Report.Admitted() == false). Warn marks what cannot be proven safe;
// the program is admitted. Report.CertStackBounds summarizes the Warns
// that concern the stack window (Diag.Cert); it is reported only, and
// every machine tests the window before each dispatch regardless.
package verify

import (
	"fmt"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// maxDepth is the evaluation-stack capacity the analysis bounds against.
const maxDepth = isa.EvalStackDepth

// interval is an abstract stack depth: every concrete depth reaching the
// pc lies in [lo, hi].
type interval struct{ lo, hi int }

// top is the unknown depth: anything the machine accepts.
var top = interval{0, maxDepth}

func (a interval) join(b interval) interval {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// entryDepth is the canonical procedure entry context: enterProc always
// clears the stack.
var entryDepth = interval{0, 0}

// region is one procedure's code range [entry, end) as the linker laid it
// out; end is the next inline header in the segment (or the segment end).
type region struct {
	entry, end uint32
	name       string
	inst       *image.Instance
	fsi        int
}

type diagKey struct {
	pc     uint32
	reason Reason
}

type analyzer struct {
	p     *image.Program
	code  []byte
	insts []isa.Inst
	data  map[mem.Addr]mem.Word

	regions     []region
	regionOf    []int32 // per pc: region index or -1
	entryRegion map[uint32]int
	instByCB    map[uint32]*image.Instance
	boundary    []bool // canonical instruction boundaries per region

	// trapsPossible: a run reached a STRAP (sawStrap), so the rerun lets
	// every TRAPB and division transfer to an in-machine handler.
	sawStrap      bool
	trapsPossible bool

	state   []interval
	reached []bool
	work    []uint32
	queued  []bool

	// Per-region result summaries (join of RET depths).
	sum         []interval
	sumOK       []bool
	deps        [][]uint32 // call sites awaiting the summary
	depSeen     map[uint64]bool
	maxHi       []int  // per region: max hi over its reached pcs
	callEntered []bool // region can be entered by a static call

	definite map[uint32][2]int // pc -> {pops, pushes} of an effect that looked definite
	diags    []Diag
	seen     map[diagKey]bool
	certOK   bool
	calls    []CallEdge
	callSeen map[CallEdge]bool
}

// Program verifies a linked program and returns the structured report.
// It never fails hard: malformed images produce Error diagnostics, not
// panics, so a serving layer can always render the report.
func Program(p *image.Program) *Report {
	insts, _ := isa.Predecode(p.Code)
	a := &analyzer{
		p:           p,
		code:        p.Code,
		insts:       insts,
		data:        make(map[mem.Addr]mem.Word, len(p.Data)),
		entryRegion: map[uint32]int{},
		instByCB:    map[uint32]*image.Instance{},
	}
	for _, dw := range p.Data {
		a.data[dw.Addr] = dw.Val
	}
	a.buildRegions()
	a.buildBoundaries()
	a.reset()
	a.run()
	if a.sawStrap {
		// A reachable STRAP: rerun with in-machine trap dispatch possible
		// everywhere (the handler installed at any point governs every
		// TRAPB and division).
		a.trapsPossible = true
		a.reset()
		a.run()
	}
	a.definiteFaults()
	return a.report()
}

func (a *analyzer) buildRegions() {
	ncode := uint32(len(a.code))
	for _, inst := range a.p.Instances {
		a.instByCB[inst.CodeBase] = inst
		segEnd := ncode
		for _, other := range a.p.Instances {
			if other.CodeBase > inst.CodeBase && other.CodeBase < segEnd {
				segEnd = other.CodeBase
			}
		}
		for i := range inst.Module.Procs {
			entry := inst.ProcEntryPC(i)
			if entry >= ncode {
				continue
			}
			end := segEnd
			for j := range inst.Module.Procs {
				if h := inst.ProcHeaderAddr(j); h > entry && h < end {
					end = h
				}
			}
			a.regions = append(a.regions, region{
				entry: entry, end: end,
				name: inst.Module.Name + "." + inst.Module.Procs[i].Name,
				inst: inst, fsi: inst.FSI[i],
			})
		}
	}
	a.regionOf = make([]int32, len(a.code))
	for i := range a.regionOf {
		a.regionOf[i] = -1
	}
	for r, reg := range a.regions {
		a.entryRegion[reg.entry] = r
		for pc := reg.entry; pc < reg.end && pc < ncode; pc++ {
			a.regionOf[pc] = int32(r)
		}
	}
}

// buildBoundaries marks the canonical instruction boundaries: the pcs a
// linear decode from each procedure entry visits. Jumping anywhere else is
// legal for the machine (the predecoded table is dense) but almost always
// a compiler or relocation bug, so it gets a Warn.
func (a *analyzer) buildBoundaries() {
	a.boundary = make([]bool, len(a.code))
	for _, reg := range a.regions {
		for pc := reg.entry; pc < reg.end; {
			in := &a.insts[pc]
			if !in.Valid() {
				break
			}
			a.boundary[pc] = true
			pc += uint32(in.Size)
		}
	}
}

func (a *analyzer) reset() {
	n := len(a.code)
	nr := len(a.regions)
	a.state = make([]interval, n)
	a.reached = make([]bool, n)
	a.work = a.work[:0]
	a.queued = make([]bool, n)
	a.sum = make([]interval, nr)
	a.sumOK = make([]bool, nr)
	a.deps = make([][]uint32, nr)
	a.depSeen = map[uint64]bool{}
	a.maxHi = make([]int, nr)
	for i := range a.maxHi {
		a.maxHi[i] = -1
	}
	a.callEntered = make([]bool, nr)
	a.sawStrap = false
	a.definite = map[uint32][2]int{}
	a.diags = nil
	a.seen = map[diagKey]bool{}
	a.certOK = true
	a.calls = nil
	a.callSeen = map[CallEdge]bool{}

	// Roots: every linked procedure entry, at depth 0 — any of them can be
	// the target of a serving call, a coroutine creation or a trap handler
	// installation, and enterProc always clears the stack.
	for _, reg := range a.regions {
		a.joinInto(reg.entry, entryDepth)
	}
	// The program's start descriptor must itself resolve.
	if a.p.Entry != 0 {
		if !image.IsProc(a.p.Entry) {
			a.diag(0, LevelError, ReasonBadDescriptor,
				"entry context %04x is not a procedure descriptor", a.p.Entry)
		} else {
			a.resolveDescriptor(0, a.p.Entry, ReasonBadDescriptor, "entry ")
		}
	}
}

func (a *analyzer) run() {
	for len(a.work) > 0 {
		pc := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		a.queued[pc] = false
		a.step(pc, a.state[pc])
	}
}

func (a *analyzer) enqueue(pc uint32) {
	if !a.queued[pc] {
		a.queued[pc] = true
		a.work = append(a.work, pc)
	}
}

// joinInto merges d into pc's state, queueing pc when it grew.
func (a *analyzer) joinInto(pc uint32, d interval) {
	if int(pc) >= len(a.code) {
		return
	}
	if !a.reached[pc] {
		a.reached[pc] = true
		a.state[pc] = d
		a.enqueue(pc)
		return
	}
	if j := a.state[pc].join(d); j != a.state[pc] {
		a.state[pc] = j
		a.enqueue(pc)
	}
}

// propagate flows d along an intra-procedural edge from → to (fall-through
// or jump), reporting a fall off the end of the code space and flows that
// cross a procedure boundary.
func (a *analyzer) propagate(from, to uint32, d interval) {
	if int(to) >= len(a.code) {
		a.diag(from, LevelError, ReasonFallOffEnd,
			"execution runs past the %d-byte code space", len(a.code))
		return
	}
	if rf, rt := a.regionOf[from], a.regionOf[to]; rf != rt {
		a.diagCert(from, ReasonCrossProcFlow,
			"control flows from %s into %s without a call", a.regionName(rf), a.regionName(rt))
	}
	a.joinInto(to, d)
}

func (a *analyzer) regionName(r int32) string {
	if r < 0 {
		return "unowned code"
	}
	return a.regions[r].name
}

func (a *analyzer) procName(pc uint32) string {
	if int(pc) < len(a.regionOf) {
		if r := a.regionOf[pc]; r >= 0 {
			return a.regions[r].name
		}
	}
	return a.p.ProcName(pc)
}

func (a *analyzer) diag(pc uint32, lvl Level, reason Reason, format string, args ...interface{}) {
	k := diagKey{pc, reason}
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.diags = append(a.diags, Diag{
		PC: pc, Proc: a.procName(pc), Level: lvl, Reason: reason,
		Msg: fmt.Sprintf(format, args...),
	})
}

// diagCert emits a Warn that also withholds the stack-bounds certificate.
func (a *analyzer) diagCert(pc uint32, reason Reason, format string, args ...interface{}) {
	a.certOK = false
	k := diagKey{pc, reason}
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.diags = append(a.diags, Diag{
		PC: pc, Proc: a.procName(pc), Level: LevelWarn, Reason: reason, Cert: true,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (a *analyzer) edge(from, callee uint32, kind EdgeKind) {
	e := CallEdge{FromPC: from, Callee: callee, Kind: kind, May: kind == EdgeMay}
	if !a.callSeen[e] {
		a.callSeen[e] = true
		a.calls = append(a.calls, e)
	}
}

func (a *analyzer) mayEdge(pc uint32) { a.edge(pc, 0, EdgeMay) }

// resolveDescriptor statically walks the §5.1 indirection chain of a
// packed procedure descriptor: GFT entry → global frame → code base →
// entry vector → frame-size index.
func (a *analyzer) resolveDescriptor(pc uint32, desc mem.Word, reason Reason, what string) (entry uint32, fsi int, ok bool) {
	gfi, ev := image.UnpackProc(desc)
	gfte, present := a.data[image.GFTBase+mem.Addr(gfi)]
	if !present {
		a.diag(pc, LevelError, reason,
			"%sdescriptor %04x: gfi %d has no GFT entry", what, desc, gfi)
		return 0, 0, false
	}
	gf, bias := image.UnpackGFTEntry(gfte)
	lo, okLo := a.data[gf]
	hi, okHi := a.data[gf+1]
	if !okLo || !okHi {
		a.diag(pc, LevelError, reason,
			"%sdescriptor %04x: global frame %04x holds no code base", what, desc, gf)
		return 0, 0, false
	}
	cb := uint32(lo) | uint32(hi)<<16
	evIdx := ev + bias
	if inst := a.instByCB[cb]; inst != nil && evIdx >= len(inst.EVOffsets) {
		a.diag(pc, LevelError, reason,
			"%sdescriptor %04x: entry %d past the %d-slot entry vector of %s",
			what, desc, evIdx, len(inst.EVOffsets), inst.Module.Name)
		return 0, 0, false
	}
	return a.resolveEntry(pc, cb, evIdx, reason, what)
}

// resolveEntry reads entry-vector slot evIdx of the segment at cb the way
// the machine's LOCALCALL path does, validating every read.
func (a *analyzer) resolveEntry(pc uint32, cb uint32, evIdx int, reason Reason, what string) (entry uint32, fsi int, ok bool) {
	evAddr := int64(cb) + int64(2*evIdx)
	if evAddr+1 >= int64(len(a.code)) || evAddr < 0 {
		a.diag(pc, LevelError, reason,
			"%sentry-vector slot %d at %06x reads outside the code space", what, evIdx, evAddr)
		return 0, 0, false
	}
	evOff := uint32(a.code[evAddr]) | uint32(a.code[evAddr+1])<<8
	fsiAddr := int64(cb) + int64(evOff)
	if fsiAddr >= int64(len(a.code)) {
		a.diag(pc, LevelError, reason,
			"%sentry %d: header at %06x lies outside the code space", what, evIdx, fsiAddr)
		return 0, 0, false
	}
	fsi = int(a.code[fsiAddr])
	entry = uint32(fsiAddr) + 1
	if int64(entry) >= int64(len(a.code)) || !a.insts[entry].Valid() {
		a.diag(pc, LevelError, reason,
			"%sentry %d: first instruction at %06x does not decode", what, evIdx, entry)
		return 0, 0, false
	}
	if fsi >= len(a.p.FrameSizes) {
		a.diag(pc, LevelError, ReasonBadFrameSize,
			"%sentry %d: frame class %d outside the %d-class table", what, evIdx, fsi, len(a.p.FrameSizes))
		return 0, 0, false
	}
	return entry, fsi, true
}

func (a *analyzer) report() *Report {
	r := &Report{
		Diags:  a.diags,
		Calls:  a.calls,
		Depths: make(map[uint32][2]int),
	}
	for pc := range a.code {
		if a.reached[pc] {
			r.Depths[uint32(pc)] = [2]int{a.state[pc].lo, a.state[pc].hi}
		}
	}
	for i, reg := range a.regions {
		pi := ProcInfo{Name: reg.name, Entry: reg.entry, MaxDepth: a.maxHi[i],
			ResultLo: -1, ResultHi: -1, Called: a.callEntered[i]}
		if a.sumOK[i] {
			pi.ResultLo, pi.ResultHi = a.sum[i].lo, a.sum[i].hi
		}
		r.Procs = append(r.Procs, pi)
	}
	r.CertStackBounds = a.certOK && r.Admitted()
	return r
}
