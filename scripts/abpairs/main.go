// Command abpairs runs the repository's end-to-end benchmark as alternating
// A/B pairs: a parent commit against the working tree. It checks the
// parent out into a git worktree under .bench_build/, then for every
// workload runs `sh fpcdbench/run.sh` once per side per pair — the parent
// first on odd pairs and the working tree first on even ones, both sides of
// pair i with seed i — and prints one markdown table per workload: each
// metric's median [Q1, Q3] per side, the change in the median, the
// parent's interquartile range, how many pairs the change won, and
// whether the metric meets the claim rule.
//
// The claim rule: the change wins at least 9 in 10 pairs, and its median
// beats the parent's by more than the parent's interquartile range. A
// metric whose change median is worse than the parent's by more than its
// BENCHMARK.json bound is marked WORSE.
//
// Usage (from the repository root; `make ab` wraps it):
//
//	go run ./scripts/abpairs -parent HEAD -workload corpus-hot,tiny-call -pairs 10 -seconds 20
//
// -trace 1 compares the per-layer rows of traced runs instead. The exit
// status is 1 when any run failed or reported a failed request.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the tables need.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line of fpcdbench's standard output.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// side is one checkout's runs of one workload.
type side struct {
	dir       string
	runs      []*result
	attempted int
	failed    int
}

func main() {
	parent := flag.String("parent", "HEAD", "revision to compare the working tree against")
	workloads := flag.String("workload", "corpus-hot", "comma-separated workloads")
	pairs := flag.Int("pairs", 10, "alternating pairs per workload")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 compares traced runs' per-layer rows")
	flag.Parse()
	if *pairs < 1 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "abpairs: -pairs and -seconds must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*parent, strings.Split(*workloads, ","), *pairs, *seconds, *trace, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abpairs:", err)
		os.Exit(1)
	}
}

func run(parent string, workloads []string, pairs, seconds, trace int, out io.Writer) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, err := git(root, "rev-parse", "--verify", parent+"^{commit}")
	if err != nil {
		return err
	}
	var sp spec
	if b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return err
	} else if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics := sp.EndToEnd
	if trace == 1 {
		metrics = sp.PerLayer
	}

	wt := filepath.Join(root, ".bench_build", "ab-parent")
	git(root, "worktree", "remove", "--force", wt) // a leftover from an interrupted run
	if _, err := git(root, "worktree", "add", "--detach", wt, rev); err != nil {
		return err
	}
	defer git(root, "worktree", "remove", "--force", wt)

	bad := false
	for _, w := range workloads {
		a, b := &side{dir: wt}, &side{dir: root}
		for i := 1; i <= pairs; i++ {
			order := []*side{a, b}
			if i%2 == 0 {
				order = []*side{b, a}
			}
			for _, s := range order {
				r, err := runOnce(s.dir, w, i, seconds, trace)
				if err != nil {
					return fmt.Errorf("%s pair %d in %s: %w", w, i, s.dir, err)
				}
				s.runs = append(s.runs, r)
				s.attempted += r.Attempted
				s.failed += r.Failed
				bad = bad || !r.Correct || r.Failed > 0
			}
			fmt.Fprintf(os.Stderr, "abpairs: %s pair %d/%d done\n", w, i, pairs)
		}
		printTable(out, w, rev, pairs, seconds, metrics, trace == 0, a, b)
	}
	if bad {
		return fmt.Errorf("some runs reported failed requests")
	}
	return nil
}

// runOnce runs the benchmark in one checkout and parses its result line.
func runOnce(dir, workload string, seed, seconds, trace int) (*result, error) {
	cmd := exec.Command("sh", "fpcdbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %w", jerr)
	}
	return &r, nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// printTable writes one workload's comparison as a markdown table, the
// metrics in BENCHMARK.json's order followed by any others the runs
// reported, and with perPair a second table of every pair's values.
func printTable(w io.Writer, workload, rev string, pairs, seconds int, metrics []metricSpec, perPair bool, a, b *side) {
	known := map[string]bool{}
	for _, m := range metrics {
		known[m.Name] = true
	}
	var extra []string
	for name := range a.runs[0].Metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		metrics = append(metrics, metricSpec{Name: name, Unit: a.runs[0].Metrics[name].Unit})
	}

	fmt.Fprintf(w, "\n### %s: %d alternating pairs × %d s, parent %.7s vs working tree\n\n", workload, pairs, seconds, rev)
	fmt.Fprintln(w, "| metric | unit | parent median [Q1, Q3] | change median [Q1, Q3] | Δ median | parent IQR | wins | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	need := int(math.Ceil(0.9 * float64(pairs)))
	for _, m := range metrics {
		av, bv := values(a, m.Name), values(b, m.Name)
		if av == nil || bv == nil {
			continue
		}
		pa, pb := quartiles(av), quartiles(bv)
		iqr := pa[2] - pa[0]
		sign := 0.0
		switch m.Better {
		case "higher":
			sign = 1
		case "lower":
			sign = -1
		}
		wins := 0
		for i := range av {
			if sign*(bv[i]-av[i]) > 0 {
				wins++
			}
		}
		gap := sign * (pb[1] - pa[1])
		verdict := ""
		switch {
		case sign == 0:
			verdict = "—"
		case pb[1] == pa[1] && iqr == 0:
			verdict = "identical"
		case wins >= need && gap > iqr:
			verdict = "claim met"
		case m.Bound > 0 && pa[1] != 0 && -gap > m.Bound*math.Abs(pa[1]):
			verdict = "WORSE beyond bound"
		default:
			verdict = "within noise"
		}
		winCol := fmt.Sprintf("%d/%d", wins, pairs)
		if sign == 0 {
			winCol = "—"
		}
		fmt.Fprintf(w, "| %s | %s | %s [%s, %s] | %s [%s, %s] | %s | %s | %s | %s |\n",
			m.Name, m.Unit, num(pa[1]), num(pa[0]), num(pa[2]), num(pb[1]), num(pb[0]), num(pb[2]),
			delta(pa[1], pb[1]), num(iqr), winCol, verdict)
	}
	fmt.Fprintf(w, "\nRequests: parent %d attempted, %d failed; change %d attempted, %d failed.\n",
		a.attempted, a.failed, b.attempted, b.failed)

	if !perPair {
		return
	}
	// Every pair, parent → change, for the metrics that have a direction.
	var cols []string
	for _, m := range metrics {
		if m.Better != "" && values(a, m.Name) != nil && values(b, m.Name) != nil {
			cols = append(cols, m.Name)
		}
	}
	fmt.Fprintf(w, "\n| pair | seed | first | %s |\n|---|---|---|%s\n",
		strings.Join(cols, " | "), strings.Repeat("---|", len(cols)))
	for i := range a.runs {
		first := "parent"
		if (i+1)%2 == 0 {
			first = "change"
		}
		row := []string{fmt.Sprint(i + 1), fmt.Sprint(i + 1), first}
		for _, name := range cols {
			row = append(row, num(a.runs[i].Metrics[name].Value)+" → "+num(b.runs[i].Metrics[name].Value))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
}

// values returns one run's value of name per pair, in pair order.
func values(s *side, name string) []float64 {
	var v []float64
	for _, r := range s.runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		v = append(v, m.Value)
	}
	return v
}

// quartiles returns Q1, the median and Q3, linearly interpolated between
// order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func num(x float64) string {
	switch ax := math.Abs(x); {
	case ax == 0:
		return "0"
	case ax >= 1e6:
		return fmt.Sprintf("%.4g", x)
	case ax >= 100:
		return fmt.Sprintf("%.0f", x)
	case ax >= 1:
		return fmt.Sprintf("%.3g", x)
	default:
		return fmt.Sprintf("%.4g", x)
	}
}

func delta(a, b float64) string {
	if a == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
}
