// Command fpcfuzz runs the differential fuzzing oracle over a contiguous
// range of generator seeds — the long-offline counterpart to the
// `go test -fuzz` targets in internal/difffuzz. Every seed's program goes
// through difffuzz.Check: the four-way differential (I1 reference vs the
// Mesa, FastFetch and FastCalls machines, both linkages) with the
// predecode cross-check, the admission oracle (the verifier admits every
// compiler-emitted program), the metamorphic battery (Step vs Run, Reset
// reuse, budget cuts, cancellation, pool accounting, park/resume) and
// fast-transfer monotonicity.
//
//	fpcfuzz -n 2000            # the make fuzz-smoke sweep
//	fpcfuzz -start 2000 -n 100000 -quiet   # an overnight shift
//
// The exit status is the number of failing seeds (capped at 125); each
// failure is reported with its minimized program unless -minimize=false.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/difffuzz"
	"repro/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 2000, "number of seeds to check")
		start    = flag.Int64("start", 0, "first seed")
		minimize = flag.Bool("minimize", true, "shrink failing programs before reporting")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent checker goroutines")
		quiet    = flag.Bool("quiet", false, "suppress the progress line")
	)
	flag.Parse()

	seeds := make(chan int64)
	var done, failed atomic.Int64
	var mu sync.Mutex // serializes failure reports
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				var err error
				if *minimize {
					err = difffuzz.CheckSeed(seed)
				} else if err = difffuzz.Check(workload.RandomProgram(seed)); err != nil {
					err = fmt.Errorf("seed %d: %w", seed, err)
				}
				if err != nil {
					failed.Add(1)
					mu.Lock()
					fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
					mu.Unlock()
				}
				if d := done.Add(1); !*quiet && d%200 == 0 {
					fmt.Fprintf(os.Stderr, "fpcfuzz: %d/%d seeds checked, %d failed\n", d, *n, failed.Load())
				}
			}
		}()
	}
	for seed := *start; seed < *start+int64(*n); seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()

	f := failed.Load()
	if f == 0 {
		if !*quiet {
			fmt.Printf("fpcfuzz: %d seeds clean (%d..%d)\n", *n, *start, *start+int64(*n)-1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "fpcfuzz: %d of %d seeds FAILED\n", f, *n)
	if f > 125 {
		f = 125
	}
	os.Exit(int(f))
}
