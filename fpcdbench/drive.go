package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// epoch is the benchmark clock's origin; now reads monotonic nanoseconds
// since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// sample is one completed request.
type sample struct {
	done int64  // completion time, ns since epoch
	lat  uint32 // client-observed round trip, ns, saturating at 4.29 s
	kind uint32
}

// sampleRate sizes each client's sample buffer, in requests per second,
// so that the benchmark's own heap does not grow while it measures.
const sampleRate = 10_000

// phase is what one stretch of closed-loop load produced.
type phase struct {
	samples   [][]sample // per client
	bounds    []int64    // window boundaries, ns since epoch
	allocs    []uint64   // runtime.MemStats.TotalAlloc at each boundary
	attempted int
	failures  []string
	tracers   []*tracer // traced phases only
}

func (p *phase) failed() int { return len(p.failures) }

// drive runs every client as a closed loop — each sends its next request
// only after the previous reply arrived and was checked — for d, split
// into windows of equal length. A nil rep runs untraced; otherwise every
// request is also replayed in process through the public calls the
// handler makes (see trace.go).
func drive(clients []*client, d time.Duration, windows int, rep *replica) *phase {
	p := &phase{samples: make([][]sample, len(clients))}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex
	if rep != nil {
		p.tracers = make([]*tracer, len(clients))
		rep.spans.on.Store(true)
		defer rep.spans.on.Store(false)
	}
	for i, c := range clients {
		var t *tracer
		if rep != nil {
			t = &tracer{}
			p.tracers[i] = t
		}
		wg.Add(1)
		go func(i int, c *client, t *tracer) {
			defer wg.Done()
			out := make([]sample, 0, int(d.Seconds()*sampleRate)+64)
			var fails []string
			n := 0
			for !stop.Load() {
				k := c.gen.next()
				kd := c.kinds[k]
				start := now()
				status, body, err := c.do(kd, t != nil)
				end := now()
				n++
				msg := ""
				if err != nil {
					msg = kd.label + ": " + err.Error()
				} else {
					msg = kd.check(status, body)
				}
				if msg == "" && t != nil {
					msg = t.request(rep, c, kd, start, end)
				}
				if msg != "" {
					fails = append(fails, msg)
					continue
				}
				out = append(out, sample{done: end, lat: uint32(min(end-start, math.MaxUint32)), kind: uint32(k)})
			}
			mu.Lock()
			p.samples[i] = out
			p.attempted += n
			p.failures = append(p.failures, fails...)
			mu.Unlock()
		}(i, c, t)
	}

	var ms runtime.MemStats
	mark := func() {
		runtime.ReadMemStats(&ms)
		p.bounds = append(p.bounds, now())
		p.allocs = append(p.allocs, ms.TotalAlloc)
	}
	begin := time.Now()
	mark()
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(begin.Add(d * time.Duration(w) / time.Duration(windows))))
		mark()
	}
	stop.Store(true)
	wg.Wait()
	return p
}

// windowStats is one window's end-to-end figures.
type windowStats struct {
	reqPerSec, p50ms, p99ms, simPerSec, allocPerReq float64
	latSamples                                      int
}

// windowed splits the phase's completions by window. Scrapes count as
// requests but not as latency samples, since they are timed on their own.
func (p *phase) windowed(kinds []*kind) []windowStats {
	nw := len(p.bounds) - 1
	lats := make([][]int64, nw)
	counts := make([]int, nw)
	steps := make([]uint64, nw)
	for _, ss := range p.samples {
		for _, s := range ss {
			w, ok := slices.BinarySearch(p.bounds, s.done)
			if !ok {
				w--
			}
			if w < 0 || w >= nw {
				continue // warm-up tail or after the last boundary
			}
			counts[w]++
			k := kinds[s.kind]
			if k.op == opScrape {
				continue
			}
			steps[w] += k.ref.Instructions
			lats[w] = append(lats[w], int64(s.lat))
		}
	}
	out := make([]windowStats, nw)
	for w := range out {
		secs := float64(p.bounds[w+1]-p.bounds[w]) / 1e9
		slices.Sort(lats[w])
		out[w] = windowStats{
			reqPerSec:  float64(counts[w]) / secs,
			p50ms:      percentile(lats[w], 0.50) / 1e6,
			p99ms:      percentile(lats[w], 0.99) / 1e6,
			simPerSec:  float64(steps[w]) / secs,
			latSamples: len(lats[w]),
		}
		if counts[w] > 0 {
			out[w].allocPerReq = float64(p.allocs[w+1]-p.allocs[w]) / float64(counts[w])
		}
	}
	return out
}

// completed counts the requests that finished inside the windows.
func (p *phase) completed() int {
	n := 0
	for _, ss := range p.samples {
		for _, s := range ss {
			if s.done >= p.bounds[0] && s.done < p.bounds[len(p.bounds)-1] {
				n++
			}
		}
	}
	return n
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf reports the median over windows of one figure.
func medianOf(ws []windowStats, f func(windowStats) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}
