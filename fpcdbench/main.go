// Command fpcdbench is the repository's end-to-end benchmark. It serves
// fpcd in process on a 127.0.0.1 TCP listener, drives it with a seeded
// closed-loop request stream from two keep-alive clients, checks every
// response against an independent reference, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"req_per_s": {"value": 2512.3, "unit": "1/s"}, ...}}
//
// Usage (from the repository root; fpcdbench/run.sh builds and runs it):
//
//	fpcdbench --workload corpus-hot|tiny-call|submit-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end set. With --trace 1 the
// run measures untraced and then traced load, each for half of --seconds,
// and reports the per-layer rows of the traced half (see trace.go and
// README.md). The exit code is 0 when every response was correct, 1 when
// any failed, and 2 when the benchmark could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	warmup   time.Duration
	measure  time.Duration
	windows  int
	trace    bool
	traceDir string
	// corrupt flips one expected result, so every response of that kind
	// must be counted as failed: the output check's own test.
	corrupt bool
}

// clients is the closed loop's size: one per CPU of the 2-CPU reference
// host, each on its own keep-alive connection.
const clients = 2

// setupReps is how many times set-up is timed; setup_s is the median.
const setupReps = 51

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpcdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: corpus-hot, tiny-call or submit-churn")
	seed := fs.Int64("seed", 1, "seed of the request streams")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer rows of a traced run instead of the end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run's spans are written to")
	corrupt := fs.Bool("corrupt-expected", false, "corrupt one expected result; the run must then fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "fpcdbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	measure := time.Duration(*seconds) * time.Second
	o := options{
		workload: *wl, seed: *seed, measure: measure, warmup: min(time.Second, measure/4),
		windows: max(*seconds/2, 2), trace: *trace == 1, traceDir: *traceDir, corrupt: *corrupt,
	}
	res, err := run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "fpcdbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fpcdbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark invocation and prints its report to w.
func run(o options, w io.Writer) (*result, error) {
	s, err := findSpec(o.workload)
	if err != nil {
		return nil, err
	}
	kinds := s.kinds()
	if err := prepare(kinds); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if o.corrupt {
		kinds[0].expect[0] ^= 1
	}

	// Set-up, timed setupReps times from a collected heap; the last
	// daemon serves the run.
	var spans *handlerSpans
	var wrap func(h http.Handler) http.Handler
	if o.trace {
		spans = &handlerSpans{last: map[string][2]int64{}}
		wrap = spans.wrap
	}
	setups := make([]float64, setupReps)
	var f *fpcd
	var cs []*client
	for r := range setups {
		if f != nil {
			for _, c := range cs {
				c.close()
			}
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if f, err = startFpcd(s.cacheImages, wrap); err != nil {
			return nil, err
		}
		cs = make([]*client, clients)
		for i := range cs {
			cs[i] = newClient(f.url, kinds, newGen(s, kinds, o.seed, i))
		}
		if err := cs[0].presubmit(); err != nil {
			f.stop()
			return nil, err
		}
		setups[r] = time.Since(t0).Seconds()
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
		f.stop()
	}()

	fmt.Fprintf(w, "fpcdbench %s seed %d: %s\n%d kinds, %d closed-loop clients, warm-up %v, measure %v, trace %v\n",
		s.name, o.seed, s.why, len(kinds), clients, o.warmup, o.measure, o.trace)
	warm := drive(cs, o.warmup, 1, nil)
	runtime.GC() // every measured phase starts from a collected heap
	res := &result{Metrics: map[string]metric{}}
	var phases []*phase
	if o.trace {
		if phases, err = runTraced(o, s, f, spans, kinds, cs, res, w); err != nil {
			return nil, err
		}
	} else {
		measured := drive(cs, o.measure, o.windows, nil)
		phases = []*phase{measured}
		endToEnd(measured, kinds, setups, res, w)
	}
	for _, p := range append(phases, warm) {
		res.Attempted += p.attempted
		res.Failed += p.failed()
		for i, msg := range p.failures {
			if i == 5 {
				fmt.Fprintf(w, "  ... %d more failures\n", len(p.failures)-i)
				break
			}
			fmt.Fprintln(w, "  FAILED", msg)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(w, "checked %d responses, %d failed (error rate %.4g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}
