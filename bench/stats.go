package main

import (
	"math"
	"sort"
	"time"
)

// samples collects per-operation timings of one kind.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addSince(start time.Time, unit time.Duration) {
	s.add(float64(time.Since(start)) / float64(unit))
}

// pct returns the nearest-rank p-th percentile (p in [0,100]), 0 for an
// empty sample.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// median of an even-sized sample is the mean of the two middle values,
// so the median of several set-up times is not just the larger one.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// ratio is a/b with 0 for an empty denominator: a layer a workload
// bypasses reports 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
