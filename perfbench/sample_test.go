package main

import (
	"math"
	"testing"
)

// Expected values are Python's statistics.quantiles(values, n=4), the
// rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 3, 3}, [3]float64{3, 3, 3}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.in)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.in, i, got, c.want[i])
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

// A p99 is reported only with at least ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if v, ok := percentile(series(999), 0.99); ok {
		t.Errorf("p99 of 999 samples reported (%g); only 9 lie beyond it", v)
	}
	v, ok := percentile(series(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(nil, 0.99); ok {
		t.Error("p99 of no samples reported")
	}
	if v, ok := percentile(series(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10, true", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}
