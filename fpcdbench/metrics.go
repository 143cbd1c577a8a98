package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	fpc "repro"
	"repro/internal/workload"
)

// endToEndUnits lists the end-to-end metrics, as BENCHMARK.json does.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"req_per_s":           "1/s",
	"latency_p50_ms":      "ms",
	"latency_p99_ms":      "ms",
	"siminstr_per_s":      "1/s",
	"alloc_bytes_per_req": "bytes",
	"sim_cpi":             "cycles/instr",
	"fastfrac":            "ratio",
}

// endToEnd reports the measured phase: each timing figure is the median
// over the phase's windows, set-up time the median over its repetitions.
func endToEnd(p *phase, kinds []*kind, setups []float64, res *result, w io.Writer) {
	ws := p.windowed(kinds)
	cpi, ff := simFigures(kinds)
	vals := map[string]float64{
		"setup_s":             median(setups),
		"req_per_s":           medianOf(ws, func(x windowStats) float64 { return x.reqPerSec }),
		"latency_p50_ms":      medianOf(ws, func(x windowStats) float64 { return x.p50ms }),
		"latency_p99_ms":      medianOf(ws, func(x windowStats) float64 { return x.p99ms }),
		"siminstr_per_s":      medianOf(ws, func(x windowStats) float64 { return x.simPerSec }),
		"alloc_bytes_per_req": medianOf(ws, func(x windowStats) float64 { return x.allocPerReq }),
		"sim_cpi":             cpi,
		"fastfrac":            ff,
	}
	minSamples, maxSamples := ws[0].latSamples, ws[0].latSamples
	for _, x := range ws {
		minSamples, maxSamples = min(minSamples, x.latSamples), max(maxSamples, x.latSamples)
	}
	fmt.Fprintf(w, "%d requests in %d windows, %d to %d latency samples per window; %d set-ups, %.4g to %.4g s\n",
		p.completed(), len(ws), minSamples, maxSamples, len(setups), slices.Min(setups), slices.Max(setups))
	for i, x := range ws {
		fmt.Fprintf(w, "  window %2d: %9.1f req/s  p50 %.4g ms  p99 %.4g ms  %d samples\n", i, x.reqPerSec, x.p50ms, x.p99ms, x.latSamples)
	}
	for _, name := range sortedKeys(vals) {
		res.Metrics[name] = metric{Value: vals[name], Unit: endToEndUnits[name]}
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", name, vals[name], endToEndUnits[name])
	}
	scrapes := scrapeLatencies(p, kinds)
	if len(scrapes) > 0 {
		fmt.Fprintf(w, "  GET /metrics: %d scrapes, p50 %.4g ms\n", len(scrapes), percentile(scrapes, 0.5)/1e6)
	}
}

func scrapeLatencies(p *phase, kinds []*kind) []int64 {
	var out []int64
	for _, ss := range p.samples {
		for _, s := range ss {
			if kinds[s.kind].op == opScrape && s.done >= p.bounds[0] {
				out = append(out, int64(s.lat))
			}
		}
	}
	slices.Sort(out)
	return out
}

// simFigures are the modelled design's figures, from the set-up reference
// runs: the unweighted means over the workload's distinct programs of
// cycles per instruction and of the fast-transfer fraction (over programs
// that make calls or returns at all).
func simFigures(kinds []*kind) (cpi, fastfrac float64) {
	return meanOver(kinds, func(m *fpc.Metrics) (float64, bool) {
			return float64(m.Cycles) / float64(m.Instructions), m.Instructions > 0
		}), meanOver(kinds, func(m *fpc.Metrics) (float64, bool) {
			return m.FastFraction(), m.CallsAndReturns() > 0
		})
}

// meanOver averages f over the kinds' reference runs where it is defined.
func meanOver(kinds []*kind, f func(*fpc.Metrics) (float64, bool)) float64 {
	sum, n := 0.0, 0
	for _, k := range kinds {
		if k.ref == nil {
			continue
		}
		if v, ok := f(k.ref); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runTraced measures untraced and then traced load for half of the
// run each, and reports the traced half's per-layer rows.
func runTraced(o options, s *spec, f *fpcd, spans *handlerSpans, kinds []*kind, cs []*client, res *result, w io.Writer) ([]*phase, error) {
	rep, err := newReplica(s, f, spans, kinds)
	if err != nil {
		return nil, err
	}
	before := f.srv.Registry().Stats()
	plain := drive(cs, o.measure/2, o.windows/2, nil)
	traced := drive(cs, o.measure/2, o.windows/2, rep)
	after := f.srv.Registry().Stats()
	phases := []*phase{plain, traced}

	r, mean, n := rows(traced.tracers)
	vals := map[string]float64{}
	for name, v := range r {
		vals[name] = v
	}
	vals["request.mean_us"] = mean
	plainRate := float64(plain.completed()) / (o.measure / 2).Seconds()
	tracedRate := float64(traced.completed()) / (o.measure / 2).Seconds()
	vals["trace.overhead_ratio"] = 1 - tracedRate/plainRate

	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	vals["registry.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	certified, admitted := 0, 0
	for _, k := range kinds {
		if k.img != nil {
			admitted++
			if k.img.VerifyReport().CertStackBounds {
				certified++
			}
		}
	}
	vals["verify.certified_ratio"] = ratio(float64(certified), float64(admitted))
	vals["regbank.hit_ratio"] = meanOver(kinds, func(m *fpc.Metrics) (float64, bool) {
		return ratio(float64(m.BankHits), float64(m.BankHits+m.BankMisses)), m.BankHits+m.BankMisses > 0
	})
	vals["ifu.rs_hit_ratio"] = meanOver(kinds, func(m *fpc.Metrics) (float64, bool) {
		return m.RSHitRate(), m.RSHits+m.RSMisses > 0
	})
	vals["frames.ff_hit_ratio"] = meanOver(kinds, func(m *fpc.Metrics) (float64, bool) {
		return ratio(float64(m.FFHits), float64(m.FFHits+m.FFMisses)), m.FFHits+m.FFMisses > 0
	})
	vals["mem.refs_per_instr"] = meanOver(kinds, func(m *fpc.Metrics) (float64, bool) {
		return ratio(float64(m.ChargedRefs), float64(m.Instructions)), m.Instructions > 0
	})
	if vals["pool.allocs_per_call"], err = allocsPerCall(kinds); err != nil {
		return nil, err
	}
	perInstr, err := dispatchProbe()
	if err != nil {
		return nil, err
	}
	for name, v := range perInstr {
		vals[name] = v
	}

	sum := 0.0
	for _, v := range r {
		sum += v
	}
	fmt.Fprintf(w, "traced %d requests: untraced %.1f req/s, traced %.1f req/s, tracing overhead %.1f%%\n",
		n, plainRate, tracedRate, 100*vals["trace.overhead_ratio"])
	fmt.Fprintf(w, "per-request mean self time by layer (µs), largest first:\n")
	for _, name := range sortedRows(r) {
		fmt.Fprintf(w, "  %-26s %10.3f  %5.1f%%\n", name, r[name], 100*ratio(r[name], mean))
	}
	fmt.Fprintf(w, "  %-26s %10.3f  (mean request round trip %.3f µs)\n", "sum of rows", sum, mean)
	for _, line := range designChecks(s.name, r, mean) {
		fmt.Fprintln(w, line)
	}
	for _, name := range sortedKeys(vals) {
		if _, isRow := r[name]; !isRow {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, vals[name], perLayerUnit(name))
		}
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.spans.tsv", s.name, o.seed))
	if err := writeSpans(path, traced.tracers); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	for name, v := range vals {
		res.Metrics[name] = metric{Value: v, Unit: perLayerUnit(name)}
	}
	return phases, nil
}

// perLayerUnit gives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasPrefix(name, "core.ns_per_siminstr."):
		return "ns"
	case name == "pool.allocs_per_call":
		return "count"
	case name == "mem.refs_per_instr":
		return "refs/instr"
	}
	return "ratio"
}

// allocsPerCall counts heap allocations (runtime.MemStats.Mallocs) per
// Pool.Call — Get, Call, Put — on one goroutine, over every kind's program.
func allocsPerCall(kinds []*kind) (float64, error) {
	const passes = 20
	var ks []*kind
	var pools []*fpc.Pool
	for _, k := range kinds {
		if k.img != nil {
			ks, pools = append(ks, k), append(pools, fpc.NewPoolFromImage(k.img))
		}
	}
	pass := func() error {
		for i, k := range ks {
			if _, err := pools[i].Call(k.desc, k.args...); err != nil {
				return fmt.Errorf("%s: %w", k.label, err)
			}
		}
		return nil
	}
	if err := pass(); err != nil { // boots each pool's machine outside the count
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := 0; p < passes; p++ {
		if err := pass(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(passes*len(ks)), nil
}

// dispatchProbe measures core.ns_per_siminstr.<program>: Start+Run wall
// time over executed instructions for each workload.Corpus() program, on
// one goroutine with the daemon idle, on a pooled machine of the image
// the registry would admit. It repeats each program for at least 20 ms.
func dispatchProbe() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range workload.Corpus() {
		k := programKind(p, opCallHash)
		if err := k.reference(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.Name, err)
		}
		pool := fpc.NewPoolFromImage(k.img)
		var spent time.Duration
		var instr uint64
		for spent < 20*time.Millisecond {
			m, err := pool.Get()
			if err != nil {
				return nil, err
			}
			m.SetRunBudget(serveBudget)
			t0 := time.Now()
			err = m.Start(k.desc, k.args...)
			if err == nil {
				err = m.Run()
			}
			spent += time.Since(t0)
			instr += m.Metrics().Instructions
			pool.Put(m)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.Name, err)
			}
		}
		out["core.ns_per_siminstr."+programName(p.Name)] = float64(spent.Nanoseconds()) / float64(instr)
	}
	return out, nil
}

// programName is a corpus program's name without its arguments.
func programName(name string) string {
	if i := strings.IndexByte(name, '('); i >= 0 {
		return name[:i]
	}
	return name
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
