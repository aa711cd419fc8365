package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 of fewer than 1000 samples would rest on fewer than
// ten observations and is left out rather than reported.
const minBeyond = 10

// samples collects one timing or rate series. It is safe for use from
// several goroutines (the watch reader and the request loop both record).
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported: at least minBeyond samples lie beyond it.
// The median (q = 0.5) is returned by median instead, which interpolates.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns Q1, the median and Q3 by the rule Python's
// statistics.quantiles(values, n=4) uses (its default "exclusive"
// method), so spreads computed here match those computed from the same
// result files by any other tool. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}
