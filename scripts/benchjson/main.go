// Command benchjson turns `go test -bench` text output into a committed
// JSON record of dispatch-engine performance. It reads benchmark output
// from stdin and records, for every metric of every benchmark, the median,
// minimum and maximum over the repeated runs and how many runs there were,
// so a recorded figure carries its spread. The result is written as the
// "current" block of the output file. The "baseline" block — the
// pre-refactor numbers a change is judged against — is carried through
// byte for byte when the file already has one (older baselines hold plain
// means), and seeded from the measured numbers on the very first run.
//
// Usage:
//
//	go test -run '^$' -bench ... -count 6 -benchmem . | go run ./scripts/benchjson -out BENCH_dispatch.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Stat is one metric's distribution over a benchmark's repeated runs.
type Stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// Block is one recorded measurement set.
type Block struct {
	Commit     string                     `json:"commit,omitempty"`
	Date       string                     `json:"date,omitempty"`
	Note       string                     `json:"note,omitempty"`
	Benchmarks map[string]map[string]Stat `json:"benchmarks"`
}

// File is the whole record: the fixed comparison point plus the latest
// measurement, a Block. The baseline is carried through untouched, so a
// bench refresh never rewrites the comparison point; the previous current
// block, whatever its format, is replaced.
type File struct {
	Baseline json.RawMessage `json:"baseline,omitempty"`
	Current  json.RawMessage `json:"current,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_dispatch.json", "output file (merged in place)")
	note := flag.String("note", "", "note stored with the current block")
	flag.Parse()

	bench, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(bench) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	var f File
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	cur := Block{Commit: gitHead(), Date: time.Now().Format("2006-01-02"), Note: *note, Benchmarks: bench}
	f.Current, err = json.Marshal(&cur)
	if err == nil && f.Baseline == nil {
		cur.Note = "seeded from first measurement"
		f.Baseline, err = json.Marshal(&cur)
	}
	var data []byte
	if err == nil {
		data, err = json.MarshalIndent(&f, "", "  ")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(bench), *out)
}

// parse reads `go test -bench` output and returns, per benchmark name
// (Benchmark prefix and -P GOMAXPROCS suffix stripped), the distribution
// of each reported metric across repeats.
func parse(r io.Reader) (map[string]map[string]Stat, error) {
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) == 0 {
			continue
		}
		if runs[name] == nil {
			runs[name] = map[string][]float64{}
		}
		for unit, v := range metrics {
			runs[name][unit] = append(runs[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]Stat, len(runs))
	for name, m := range runs {
		out[name] = make(map[string]Stat, len(m))
		for unit, vs := range m {
			out[name][unit] = summarize(vs)
		}
	}
	return out, nil
}

// summarize reports the median (the mean of the middle two for an even
// count), extremes and count of vs.
func summarize(vs []float64) Stat {
	sort.Float64s(vs)
	n := len(vs)
	med := vs[n/2]
	if n%2 == 0 {
		med = (vs[n/2-1] + vs[n/2]) / 2
	}
	return Stat{Median: med, Min: vs[0], Max: vs[n-1], N: n}
}

// gitHead returns the short commit hash, or "" outside a git checkout.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
