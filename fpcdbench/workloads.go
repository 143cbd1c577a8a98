package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	fpc "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// serveConfig is the machine configuration fpcd serves by default
// (-config fastcalls).
var serveConfig = fpc.ConfigFastCalls

// demoSources is fpcd's built-in demo module, its default boot program.
// It is copied from cmd/fpcd, which is package main and cannot be
// imported; prepare checks that it still verifies and runs.
var demoSources = map[string]string{"serve": `
module serve;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc spin(n) {
  var i = 0;
  var acc = 0;
  while (i < n) {
    acc = acc + fib(10);
    i = i + 1;
  }
  return acc & 0x7FFF;
}
proc forever() {
  var i = 0;
  while (1) { i = i + 1; }
  return i;
}
proc echo(x) { return x; }
proc main(n) { return fib(n); }
`}

// op is the endpoint a request kind goes to.
type op int

const (
	opCall     op = iota // POST /call on the boot program
	opCallHash           // POST /call/{hash} on a cached image
	opRun                // POST /run with full module sources
	opScrape             // GET /metrics
)

// kind is one distinct request of a workload: what is sent, which program
// it runs, and what must come back.
type kind struct {
	label string
	op    op

	// The program the request runs.
	sources map[string]string // module sources, placeholders expanded
	module  string            // entry module of the linked program
	entry   string            // entry procedure of the linked program
	proc    string            // procedure the request calls
	args    []fpc.Word
	want    *fpc.Word // workload.Program.Want; nil asks the I1 interpreter

	// Filled by prepare: the expected response and the reference run.
	expect []uint16
	ref    *fpc.Metrics
	hash   string
	img    *fpc.LoadedImage
	desc   fpc.Word

	path string
	body []byte
}

// spec is one workload: a traffic mix and the server settings it needs.
type spec struct {
	name string
	why  string
	// cacheImages is server.Config.CacheImages; 0 keeps fpcd's default.
	cacheImages int
	// iid draws every request independently; otherwise each client's
	// stream is a sequence of seeded permutations of the kinds, which keeps
	// the mix exact over any window.
	iid bool
	// scrapeEvery makes every scrapeEvery-th request of client 0 a
	// GET /metrics; 0 means no scrapes.
	scrapeEvery int
	kinds       func() []*kind
}

var specs = []*spec{
	{
		name: "corpus-hot",
		why: "POST /call/{hash} over the 11 corpus programs, all cached at set-up: " +
			"most request time is Machine.Run, so dispatch and histogram changes show here",
		kinds: func() []*kind {
			var ks []*kind
			for _, p := range workload.Corpus() {
				ks = append(ks, programKind(p, opCallHash))
			}
			return ks
		},
	},
	{
		name: "tiny-call",
		why: "POST /call of the demo fib with tens of simulated instructions plus a periodic GET /metrics: " +
			"fixed per-request cost dominates and dispatch is a few percent",
		scrapeEvery: 200,
		kinds: func() []*kind {
			var ks []*kind
			for n := 2; n <= 5; n++ {
				ks = append(ks, &kind{
					label: fmt.Sprintf("fib(%d)", n), op: opCall,
					sources: demoSources, module: "serve", entry: "main", proc: "fib",
					args: []fpc.Word{fpc.Word(n)},
				})
			}
			return append(ks, &kind{label: "scrape", op: opScrape})
		},
	},
	{
		name: "submit-churn",
		why: "POST /run of 36 source variants against a 27-image cache: about one request in four " +
			"pays compile, link, verify, load and warm plus an eviction",
		cacheImages: 28, // 27 submitted images plus the pinned boot program
		iid:         true,
		kinds: func() []*kind {
			var ps []*workload.Program
			for k := 0; k < 9; k++ {
				ps = append(ps, workload.Sieve(100+10*k), workload.Sort(16+4*k), workload.Interfaces(20+5*k))
			}
			for k := 0; k < 7; k++ {
				ps = append(ps, workload.CallChain(40+10*k))
			}
			ps = append(ps, workload.Queens(4), workload.Queens(5))
			ks := make([]*kind, len(ps))
			for i, p := range ps {
				ks[i] = programKind(p, opRun)
			}
			return ks
		},
	},
}

func findSpec(name string) (*spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// programKind turns a corpus program into a request kind. The sources are
// expanded here: workload.Program.Build fills the Interfaces template's
// %N% constant itself, but a /run body must carry the text that compiles.
func programKind(p *workload.Program, o op) *kind {
	srcs := make(map[string]string, len(p.Sources))
	for name, src := range p.Sources {
		srcs[name] = expandTemplate(src, p.Name)
	}
	return &kind{
		label: p.Name, op: o,
		sources: srcs, module: p.Module, entry: p.Proc, proc: p.Proc,
		args: p.Args, want: p.Want,
	}
}

// expandTemplate fills the %N% constant of workload.Interfaces, whose
// size is carried only in the program's name.
func expandTemplate(src, name string) string {
	if !strings.Contains(src, "%N%") {
		return src
	}
	n := 60
	fmt.Sscanf(name, "interfaces(%d)", &n)
	return strings.ReplaceAll(src, "%N%", strconv.Itoa(n))
}

// render fixes the request's path and body. It runs after prepare, since a
// /call/{hash} path carries the image's content hash.
func (k *kind) render() {
	args := make([]int64, len(k.args))
	for i, a := range k.args {
		args[i] = int64(a)
	}
	var v any
	switch k.op {
	case opCall:
		k.path = "/call"
		v = server.CallRequest{Module: k.module, Proc: k.proc, Args: args}
	case opCallHash:
		k.path = "/call/" + k.hash
		v = server.CallRequest{Args: args}
	case opRun:
		k.path = "/run"
		v = server.RunRequest{Modules: k.sources, Entry: k.module + "." + k.entry, Args: args}
	case opScrape:
		k.path = "/metrics"
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	k.body = body
}

// gen is one client's seeded request stream: a sequence of kind indices
// that depends only on the workload, the seed and the client number.
type gen struct {
	rng         *rand.Rand
	n           int // kinds drawn from; a scrape kind, if any, comes after them
	iid         bool
	block       []int
	scrapeEvery int
	count       int
}

func newGen(s *spec, kinds []*kind, seed int64, client int) *gen {
	g := &gen{
		rng: rand.New(rand.NewSource(seed*1009 + int64(client))),
		n:   len(kinds),
		iid: s.iid,
	}
	if s.scrapeEvery > 0 {
		g.n-- // the scrape kind is last and never drawn
		if client == 0 {
			g.scrapeEvery = s.scrapeEvery
		}
	}
	return g
}

func (g *gen) next() int {
	g.count++
	if g.scrapeEvery > 0 && g.count%g.scrapeEvery == 0 {
		return g.n
	}
	if g.iid {
		return g.rng.Intn(g.n)
	}
	if len(g.block) == 0 {
		g.block = g.rng.Perm(g.n)
	}
	k := g.block[0]
	g.block = g.block[1:]
	return k
}
