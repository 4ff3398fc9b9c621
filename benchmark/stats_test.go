package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestSummarizeCountsAndSorts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 … 1, reversed
	}
	s := summarize(xs)
	if s.n != 1000 || s.p50 != 500 || s.p99 != 990 {
		t.Fatalf("summarize(1000…1) = %+v, want n=1000 p50=500 p99=990", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", s)
	}
}

func TestTailSupportNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %g, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
	if m := mean(xs); math.Abs(m-2) > 1e-12 {
		t.Fatalf("mean = %g, want 2", m)
	}
}
