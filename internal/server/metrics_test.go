package server

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/stats"
)

// writeExactLatencyHistogram is the exposition as rendered from an exact
// per-microsecond stats.Histogram: each bucket line counts the samples
// ≤ int(le*1e6) µs. The fixed-bucket latencyHistogram must render the same
// bytes.
func writeExactLatencyHistogram(w io.Writer, h *stats.Histogram) {
	const name = "fpc_server_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Wall-clock latency of executed requests.\n# TYPE %s histogram\n", name, name)
	for _, le := range latencyBuckets {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, h.CountAtMost(int(le*1e6)))
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.Sum())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// TestLatencyHistogramExposition: the fixed-bucket latency record renders
// byte-identically to the exact histogram over samples on every bucket
// bound, one microsecond either side of it, zero and beyond the last
// bound — the edges where a bucket assignment could be off by one.
func TestLatencyHistogramExposition(t *testing.T) {
	samples := []int64{0, 1, 7_000_000}
	for _, le := range latencyBuckets {
		b := int64(int(le * 1e6))
		samples = append(samples, b-1, b, b, b+1)
	}
	var exact stats.Histogram
	var fixed latencyHistogram
	check := func(n int) {
		t.Helper()
		var want, got bytes.Buffer
		writeExactLatencyHistogram(&want, &exact)
		writeLatencyHistogram(&got, &fixed)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("after %d samples the exposition differs:\ngot:\n%s\nwant:\n%s", n, got.String(), want.String())
		}
	}
	check(0)
	for i, us := range samples {
		exact.Observe(int(us))
		fixed.observe(us)
		check(i + 1)
	}
}
