package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestEveryWorkloadRunsClean runs every workload briefly, untraced and
// traced, and requires zero failures, exactly the metrics BENCHMARK.json
// names, and per-layer rows that add up to the mean request round trip.
func TestEveryWorkloadRunsClean(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	for i, s := range specs {
		if b.Workloads[i].Name != s.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, b.Workloads[i].Name, s.name)
		}
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			name := s.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(options{workload: s.name, seed: 7, warmup: 100 * time.Millisecond,
					measure: 600 * time.Millisecond, windows: 2, trace: traced, traceDir: t.TempDir()}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if !traced {
					for name, m := range res.Metrics {
						if m.Value == 0 || math.IsNaN(m.Value) {
							t.Errorf("end-to-end metric %s reads %v", name, m.Value)
						}
					}
					return
				}
				sum := 0.0
				for row := range rowNames {
					sum += res.Metrics[rowNames[row]].Value
				}
				mean := res.Metrics["request.mean_us"].Value
				if mean <= 0 || math.Abs(sum-mean) > 1e-6*mean {
					t.Errorf("rows sum to %v µs, mean request %v µs", sum, mean)
				}
			})
		}
	}
}

// TestCorruptedExpectationFails proves the output check can fail: with one
// expected result corrupted, responses are counted failed, the result line
// says so, and the command exits non-zero.
func TestCorruptedExpectationFails(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"--workload", "tiny-call", "--seed", "3", "--seconds", "1", "--corrupt-expected"}, &out, &errOut)
	if code == 0 {
		t.Fatalf("exit code 0 with a corrupted expectation:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s%s", err, out.String(), errOut.String())
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestStreamDependsOnlyOnSeed checks that a (workload, seed) pair fixes
// every client's request stream, and that another seed changes it.
func TestStreamDependsOnlyOnSeed(t *testing.T) {
	stream := func(s *spec, seed int64, client int) string {
		kinds := s.kinds()
		if err := prepare(kinds); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		g := newGen(s, kinds, seed, client)
		for i := 0; i < 1000; i++ {
			k := kinds[g.next()]
			b.WriteString(k.path)
			b.Write(k.body)
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, s := range specs {
		for client := 0; client < clients; client++ {
			a, again, other := stream(s, 11, client), stream(s, 11, client), stream(s, 12, client)
			if a != again {
				t.Errorf("%s client %d: seed 11 gave two different streams", s.name, client)
			}
			if a == other {
				t.Errorf("%s client %d: seeds 11 and 12 gave the same stream", s.name, client)
			}
		}
	}
}
