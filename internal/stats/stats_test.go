package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestRatioAndPercent(t *testing.T) {
	if r := Ratio(1, 4); r != 0.25 {
		t.Errorf("Ratio(1,4) = %v", r)
	}
	if r := Ratio(3, 0); r != 0 {
		t.Errorf("Ratio(3,0) = %v, want 0", r)
	}
	if p := Percent(1, 2); p != "50.0%" {
		t.Errorf("Percent(1,2) = %q", p)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []int{3, 1, 4, 1, 5, 9, 2, 6} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 9 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if h.Sum() != 31 {
		t.Errorf("Sum = %d", h.Sum())
	}
	if got := h.CountOf(1); got != 2 {
		t.Errorf("CountOf(1) = %d", got)
	}
	if f := h.FractionAtMost(4); f != 5.0/8 {
		t.Errorf("FractionAtMost(4) = %v", f)
	}

	// A clone is independent of its source: clearing the source, or
	// observing into the clone, leaves the other untouched.
	c := h.Clone()
	want := h.Clone()
	h.Clear()
	if !reflect.DeepEqual(c, want) {
		t.Fatal("clearing the source changed its clone")
	}
	if !reflect.DeepEqual(h.Clone(), Histogram{}) || h.CountOf(1) != 0 {
		t.Fatalf("cleared histogram is not empty: %+v", h)
	}
	c.Observe(9)
	if h.CountOf(9) != 0 || want.CountOf(9) != 1 {
		t.Fatal("observing into a clone reached another histogram")
	}

	// Clear then reuse equals a fresh histogram fed the same samples, over
	// both stores (dense and the overflow map).
	reuse := []int{300, -4, 0, 255, 256, 2, 2}
	var fresh Histogram
	for _, v := range reuse {
		h.Observe(v)
		fresh.Observe(v)
	}
	if !reflect.DeepEqual(h.Clone(), fresh.Clone()) {
		t.Fatalf("cleared-and-reused histogram differs from a fresh one:\n%+v\n%+v", h, fresh)
	}
	h.Clear()
	for _, v := range reuse[:3] {
		h.Observe(v)
	}
	fresh = Histogram{}
	for _, v := range reuse[:3] {
		fresh.Observe(v)
	}
	if !reflect.DeepEqual(h.Clone(), fresh.Clone()) || h.Max() != 300 || h.Min() != -4 {
		t.Fatalf("second reuse differs from a fresh histogram:\n%+v\n%+v", h, fresh)
	}
}

// histogramEdges are the values where the dense and overflow stores meet.
var histogramEdges = []int{-300, -1, 0, 1, 254, 255, 256, 257, 1000}

// checkHistogramModel compares every read of h against a sort-based model
// of the samples vals: Count, Sum, Min, Max, CountOf, CountAtMost,
// Quantile and Buckets must be exact.
func checkHistogramModel(t *testing.T, h *Histogram, vals []int) {
	t.Helper()
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	n := len(sorted)
	if h.Count() != uint64(n) {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	var sum int64
	counts := map[int]uint64{}
	for _, v := range sorted {
		sum += int64(v)
		counts[v]++
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), sum)
	}
	if n > 0 && (h.Min() != sorted[0] || h.Max() != sorted[n-1]) {
		t.Fatalf("Min/Max = %d/%d, want %d/%d", h.Min(), h.Max(), sorted[0], sorted[n-1])
	}
	wantKeys, wantCounts := []int{}, []uint64{}
	for _, v := range sorted {
		if len(wantKeys) == 0 || wantKeys[len(wantKeys)-1] != v {
			wantKeys = append(wantKeys, v)
			wantCounts = append(wantCounts, counts[v])
		}
	}
	if keys, cs := h.Buckets(); !reflect.DeepEqual(keys, wantKeys) || !reflect.DeepEqual(cs, wantCounts) {
		t.Fatalf("Buckets = %v %v, want %v %v", keys, cs, wantKeys, wantCounts)
	}
	probes := append(append([]int(nil), histogramEdges...), sorted...)
	for _, v := range probes {
		for _, p := range []int{v - 1, v, v + 1} {
			if got := h.CountOf(p); got != counts[p] {
				t.Fatalf("CountOf(%d) = %d, want %d", p, got, counts[p])
			}
			want := uint64(sort.SearchInts(sorted, p+1))
			if got := h.CountAtMost(p); got != want {
				t.Fatalf("CountAtMost(%d) = %d, want %d", p, got, want)
			}
		}
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 1} {
		if n == 0 {
			break
		}
		idx := int(q*float64(n)+0.9999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		if got, want := h.Quantile(q), sorted[idx]; got != want {
			t.Fatalf("n=%d q=%v: Quantile = %d, want %d", n, q, got, want)
		}
	}
}

func TestHistogramQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Samples on both sides of the dense store's bounds — negatives, 0,
	// 255, 256 and beyond — must read back exactly, and merging histograms
	// whose dense vectors have different lengths must equal observing
	// every sample into one.
	for trial := 0; trial < 50; trial++ {
		var lo, hi, whole Histogram
		var vals []int
		for i, n := 0, rng.Intn(300); i < n; i++ {
			v := rng.Intn(600) - 200
			if rng.Intn(4) == 0 {
				v = histogramEdges[rng.Intn(len(histogramEdges))]
			}
			vals = append(vals, v)
			whole.Observe(v)
			if v < 40 {
				lo.Observe(v)
			} else {
				hi.Observe(v)
			}
		}
		checkHistogramModel(t, &whole, vals)
		for _, parts := range [][2]*Histogram{{&lo, &hi}, {&hi, &lo}} {
			merged := parts[0].Clone()
			merged.Merge(parts[1])
			if !reflect.DeepEqual(merged, whole) {
				t.Fatalf("trial %d: merge of dense lengths %d and %d differs from one histogram:\n%+v\n%+v",
					trial, len(parts[0].dense), len(parts[1].dense), merged, whole)
			}
		}
		var cleared Histogram
		cleared.Merge(&whole)
		cleared.Clear()
		cleared.Merge(&lo)
		checkHistogramModel(t, &cleared, filter(vals, func(v int) bool { return v < 40 }))
	}
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		n := 1 + rng.Intn(200)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(40) - 10
			h.Observe(vals[i])
		}
		sort.Ints(vals)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 1} {
			idx := int(q*float64(n)+0.9999) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= n {
				idx = n - 1
			}
			if got, want := h.Quantile(q), vals[idx]; got != want {
				t.Fatalf("trial %d n=%d q=%v: got %d want %d", trial, n, q, got, want)
			}
		}
	}
}

func filter(vals []int, keep func(int) bool) []int {
	var out []int
	for _, v := range vals {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

func TestHistogramMeanProperty(t *testing.T) {
	f := func(raw []int16) bool {
		var h Histogram
		sum := 0
		for _, v := range raw {
			h.Observe(int(v))
			sum += int(v)
		}
		if len(raw) == 0 {
			return h.Mean() == 0
		}
		want := float64(sum) / float64(len(raw))
		diff := h.Mean() - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketsSorted(t *testing.T) {
	var h Histogram
	for _, v := range []int{5, 3, 5, 8, 3, 3} {
		h.Observe(v)
	}
	keys, counts := h.Buckets()
	if !sort.IntsAreSorted(keys) {
		t.Fatalf("keys not sorted: %v", keys)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum %d, want %d", total, h.Count())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 123456)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d: %q", len(lines), out)
	}
	// all rows align: same prefix width before second column
	if idx1, idx2 := strings.Index(lines[2], "-"), strings.Index(lines[4], "123456"); idx1 < 0 || idx2 < 0 {
		t.Errorf("unexpected render: %q", out)
	}
}
