package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/linker"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/verify"
)

// Tracing records spans from the benchmark's own code, never from inside
// the program: (a) each client request, (b) Server.Handler() through a
// wrapping http.Handler, and (c) an in-process replay of the request
// through the public calls the handler makes, on replica pools and a
// replica registry so the daemon's own state and counters are untouched.
// Each (c) span is a child of (b), and (b) of (a), so a layer's self time
// is its span's duration less its children's, and the self times of one
// request add up to its client-observed round trip:
//
//	(a) - (b)    http.transport       client, net/http, the kernel loopback,
//	                                  and waiting for a CPU the other client holds
//	(b) - Σ(c)   server.unattributed  admission, tenant shard, run slot, mux
//	(c)          one row per public call
//
// Replayed calls that the handler makes nested inside another — the load
// path inside Registry.SubmitSource, Machine.Reset inside Pool.Put — cannot
// be timed in place from outside; they are timed beside the outer call on
// the same input and subtracted from it as its children.

// span is one timed interval of one request.
type span struct {
	name       string
	parent     int32 // index of the parent among the request's spans; -1 for the root
	start, end int64 // ns since epoch
}

// keptRequests bounds how many requests' spans each client keeps to write
// out; every traced request still counts in the rows.
const keptRequests = 2000

// tracer traces one client's requests. It folds each request's spans into
// per-name self-time sums as the request completes, and keeps the spans
// of the first keptRequests requests in memory to write out at the end.
type tracer struct {
	cur   []span           // the request being traced
	kept  [][]span         // spans of the first keptRequests requests
	self  map[string]int64 // summed self time by span name, ns
	total int64            // summed client round trips, ns
	reqs  int
}

func (t *tracer) begin(name string, parent int32) int32 {
	t.cur = append(t.cur, span{name: name, parent: parent, start: now()})
	return int32(len(t.cur) - 1)
}

func (t *tracer) end(i int32) { t.cur[i].end = now() }

// finish folds the current request into the sums: a span's self time is
// its duration less its children's.
func (t *tracer) finish() {
	if t.self == nil {
		t.self = map[string]int64{}
	}
	for _, s := range t.cur {
		d := s.end - s.start
		t.self[s.name] += d
		if s.parent >= 0 {
			t.self[t.cur[s.parent].name] -= d
		} else {
			t.total += d
		}
	}
	if t.reqs < keptRequests {
		t.kept = append(t.kept, slices.Clone(t.cur))
	}
	t.reqs++
}

// handlerSpans times Server.Handler() per connection. A client has one
// request in flight on its one connection, so the connection's remote
// address identifies the request; the span is stored before the wrapper
// returns, which is before net/http finishes the response.
type handlerSpans struct {
	on   atomic.Bool
	mu   sync.Mutex
	last map[string][2]int64
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := now()
		next.ServeHTTP(w, r)
		end := now()
		h.mu.Lock()
		h.last[r.RemoteAddr] = [2]int64{start, end}
		h.mu.Unlock()
	})
}

func (h *handlerSpans) take(addr string) ([2]int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.last[addr]
	delete(h.last, addr)
	return s, ok
}

// replica is the replay's copy of the daemon's state: pools over the same
// images and a registry with the same configuration.
type replica struct {
	spans   *handlerSpans
	boot    *fpc.Pool
	reg     *registry.Registry
	metrics http.Handler // the daemon's own handler, for GET /metrics
	scrape  *http.Request
}

func newReplica(s *spec, f *fpcd, spans *handlerSpans, kinds []*kind) (*replica, error) {
	rep := &replica{
		spans: spans,
		boot:  fpc.NewPoolFromImage(f.srv.Pool().Image()),
		// The configuration server.New gives its registry for fpcd's
		// defaults and this workload's CacheImages.
		reg:     registry.New(registry.Config{Machine: serveConfig, Verify: true, MaxImages: s.cacheImages}),
		metrics: f.srv.Handler(),
		scrape:  &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/metrics"}, Header: http.Header{}},
	}
	rep.reg.AdoptPinned(rep.boot.Image(), rep.boot)
	// Bring the replica registry to the daemon's steady state: every
	// program submitted once, in kind order.
	for _, k := range kinds {
		if k.op == opCallHash || k.op == opRun {
			if _, _, err := rep.reg.SubmitSource(registry.SourceKey(k.sources, k.module+"."+k.entry), k.build); err != nil {
				return nil, fmt.Errorf("replica %s: %w", k.label, err)
			}
		}
	}
	return rep, nil
}

// build is the handler's /run build closure for the kind.
func (k *kind) build() (*fpc.Program, error) {
	return fpc.Build(k.sources, k.module, k.entry, fpc.DefaultLinkOptions(serveConfig))
}

// request records one traced request: (a) from the client's timestamps,
// (b) from the wrapper, then the replay (c). It returns "" or a reason the
// replay failed.
func (t *tracer) request(rep *replica, c *client, k *kind, start, end int64) string {
	hs, ok := rep.spans.take(c.local)
	if !ok {
		return k.label + ": no handler span for the request's connection"
	}
	t.cur = append(t.cur[:0],
		span{name: "client.request", parent: -1, start: start, end: end},
		span{name: "server.handler", parent: 0, start: hs[0], end: hs[1]})
	msg := t.replay(rep, k, 1)
	if msg == "" {
		t.finish()
	}
	return msg
}

// replay repeats the handler's public calls for k under parent.
func (t *tracer) replay(rep *replica, k *kind, parent int32) string {
	if k.op == opScrape {
		i := t.begin("server.metrics_scrape", parent)
		rep.metrics.ServeHTTP(discard{http.Header{}}, rep.scrape)
		t.end(i)
		return ""
	}
	var (
		pool   *fpc.Pool
		desc   fpc.Word
		hash   string
		rawArg []int64
	)
	switch k.op {
	case opCall, opCallHash:
		var req server.CallRequest
		i := t.begin("json.decode", parent)
		err := json.NewDecoder(bytes.NewReader(k.body)).Decode(&req)
		t.end(i)
		if err != nil {
			return k.label + ": replay decode: " + err.Error()
		}
		rawArg = req.Args
		if k.op == opCall {
			pool = rep.boot
			if desc, err = pool.Image().Program().FindProc(req.Module, req.Proc); err != nil {
				return k.label + ": replay: " + err.Error()
			}
			break
		}
		i = t.begin("registry.lookup", parent)
		ent, ok := rep.reg.Lookup(k.hash)
		t.end(i)
		if !ok {
			return k.label + ": replay lookup missed"
		}
		pool, desc, hash = ent.Pool(), ent.Image().Entry(), ent.Hash()
	case opRun:
		var req server.RunRequest
		i := t.begin("json.decode", parent)
		err := json.NewDecoder(bytes.NewReader(k.body)).Decode(&req)
		t.end(i)
		if err != nil {
			return k.label + ": replay decode: " + err.Error()
		}
		rawArg = req.Args
		mod, proc, _ := strings.Cut(req.Entry, ".")
		build := func() (*fpc.Program, error) {
			return fpc.Build(req.Modules, mod, proc, fpc.DefaultLinkOptions(serveConfig))
		}
		i = t.begin("registry.submit_hit", parent)
		ent, hit, err := rep.reg.SubmitSource(registry.SourceKey(req.Modules, req.Entry), build)
		t.end(i)
		if err != nil {
			return k.label + ": replay submit: " + err.Error()
		}
		if !hit {
			t.cur[i].name = "registry.submit_miss"
			if msg := t.loadPath(i, req.Modules, mod, proc); msg != "" {
				return k.label + ": " + msg
			}
		}
		pool, desc, hash = ent.Pool(), ent.Image().Entry(), ent.Hash()
	}
	args := make([]fpc.Word, len(rawArg))
	for i, a := range rawArg {
		args[i] = fpc.Word(a)
	}
	results, mt, err := t.runPooled(parent, pool, desc, args)
	if err != nil {
		return k.label + ": replay run: " + err.Error()
	}
	resp := server.RunResponse{Results: results, Steps: mt.Instructions, Cycles: mt.Cycles, Refs: mt.ChargedRefs, Hash: hash, Cached: true}
	if msg := k.checkResult(&resp); msg != "" {
		return "replay " + msg
	}
	i := t.begin("json.encode", parent)
	if k.op == opCall {
		err = json.NewEncoder(io.Discard).Encode(&server.CallResponse{Results: results, Steps: resp.Steps, Cycles: resp.Cycles, Refs: resp.Refs})
	} else {
		err = json.NewEncoder(io.Discard).Encode(&resp)
	}
	t.end(i)
	if err != nil {
		return k.label + ": replay encode: " + err.Error()
	}
	return ""
}

// loadPath times, beside a replayed submit miss and as its children, the
// load-path calls the registry made inside it.
func (t *tracer) loadPath(parent int32, srcs map[string]string, mod, proc string) string {
	i := t.begin("lang.compile", parent)
	mods, err := lang.CompileAll(srcs)
	t.end(i)
	if err != nil {
		return "compile: " + err.Error()
	}
	i = t.begin("linker.link", parent)
	prog, _, err := linker.Link(mods, mod, proc, fpc.DefaultLinkOptions(serveConfig))
	t.end(i)
	if err != nil {
		return "link: " + err.Error()
	}
	i = t.begin("verify.verify", parent)
	rep := verify.Program(prog)
	t.end(i)
	if !rep.Admitted() {
		return "verifier rejected the program"
	}
	i = t.begin("core.load", parent)
	img, err := core.LoadImage(prog, serveConfig)
	t.end(i)
	if err != nil {
		return "load: " + err.Error()
	}
	i = t.begin("pool.warm", parent)
	err = fpc.NewPoolFromImage(img).Warm(1)
	t.end(i)
	if err != nil {
		return "warm: " + err.Error()
	}
	return ""
}

// runPooled is Pool.CallContext taken apart: Get, Start+Run, the Metrics
// clone, and Put. Machine.Reset runs inside Put, so it is timed on a
// second run of the same request and counted as Put's child.
func (t *tracer) runPooled(parent int32, pool *fpc.Pool, desc fpc.Word, args []fpc.Word) ([]uint16, *fpc.Metrics, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	i := t.begin("pool.get", parent)
	m, err := pool.Get()
	t.end(i)
	if err != nil {
		return nil, nil, err
	}
	m.SetRunBudget(serveBudget)
	m.SetCancel(ctx.Err)
	i = t.begin("core.run", parent)
	err = m.Start(desc, args...)
	if err == nil {
		err = m.Run()
	}
	t.end(i)
	results := m.Results()
	i = t.begin("core.metrics", parent)
	mt := m.Metrics()
	t.end(i)
	put := t.begin("pool.put", parent)
	pool.Put(m)
	t.end(put)
	if err != nil {
		return nil, nil, err
	}

	m2, err := pool.Get()
	if err != nil {
		return nil, nil, err
	}
	m2.SetRunBudget(serveBudget)
	if err = m2.Start(desc, args...); err == nil {
		err = m2.Run()
	}
	i = t.begin("core.reset", put)
	m2.Reset()
	t.end(i)
	pool.Put(m2)
	return results, mt, err
}

// discard is a ResponseWriter that drops the body, as a buffered
// connection would absorb it.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) Write(b []byte) (int, error) { return len(b), nil }
func (discard) WriteHeader(int)             {}

// rowNames maps span names to the per-layer rows their self time feeds.
var rowNames = map[string]string{
	"client.request":        "http.transport_us",
	"server.handler":        "server.unattributed_us",
	"server.metrics_scrape": "server.metrics_scrape_us",
	"json.decode":           "json.decode_us",
	"json.encode":           "json.encode_us",
	"registry.lookup":       "registry.lookup_us",
	"registry.submit_hit":   "registry.submit_hit_us",
	"registry.submit_miss":  "registry.submit_miss_us",
	"lang.compile":          "lang.compile_us",
	"linker.link":           "linker.link_us",
	"verify.verify":         "verify.verify_us",
	"core.load":             "core.load_us",
	"pool.warm":             "pool.warm_us",
	"pool.get":              "pool.get_us",
	"pool.put":              "pool.put_us",
	"core.reset":            "core.reset_us",
	"core.metrics":          "core.metrics_us",
	"core.run":              "core.run_us",
}

// rows reports each layer's mean self time per request in µs, the mean
// request round trip they add up to, and the request count.
func rows(ts []*tracer) (map[string]float64, float64, int) {
	r := map[string]float64{}
	for _, row := range rowNames {
		r[row] = 0
	}
	var total int64
	n := 0
	for _, t := range ts {
		for name, self := range t.self {
			r[rowNames[name]] += float64(self)
		}
		total += t.total
		n += t.reqs
	}
	if n == 0 {
		return r, 0, 0
	}
	for row := range r {
		r[row] /= float64(n) * 1e3
	}
	return r, float64(total) / float64(n) / 1e3, n
}

// writeSpans writes the kept spans as tab-separated text, one per line.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\trequest\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, t := range ts {
		for req, spans := range t.kept {
			for i, s := range spans {
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, req, i, s.parent, s.name, s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedRows lists row names, largest mean self time first.
func sortedRows(r map[string]float64) []string {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if r[names[i]] != r[names[j]] {
			return r[names[i]] > r[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// loadPathRows are the rows a submit miss adds to the request path.
var loadPathRows = []string{"lang.compile_us", "linker.link_us", "verify.verify_us", "core.load_us", "pool.warm_us", "registry.submit_miss_us"}

// designChecks states what the traced run must show for the workload's
// design to hold, each as a line ending in "ok" or "NOT MET".
func designChecks(workload string, r map[string]float64, mean float64) []string {
	var claim string
	var ok bool
	switch workload {
	case "corpus-hot":
		top := sortedRows(r)[0]
		claim, ok = fmt.Sprintf("core.run_us is the largest row (largest: %s)", top), top == "core.run_us"
	case "submit-churn":
		load, other := 0.0, ""
		for _, n := range loadPathRows {
			load += r[n]
		}
		for _, n := range sortedRows(r) {
			if !slices.Contains(loadPathRows, n) && n != "http.transport_us" {
				other = n
				break
			}
		}
		claim = fmt.Sprintf("compile+link+verify+load+warm+submit-miss %.2f µs exceeds every other server-side row (largest: %s %.2f µs)", load, other, r[other])
		ok = load > r[other]
	case "tiny-call":
		claim = fmt.Sprintf("core.run_us %.2f µs is under a tenth of the %.2f µs request", r["core.run_us"], mean)
		ok = r["core.run_us"] < mean/10
	}
	verdict := "ok"
	if !ok {
		verdict = "NOT MET"
	}
	return []string{fmt.Sprintf("design: %s: %s", claim, verdict)}
}
