package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the percentile ladder a tail metric climbs.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, and returns it with its value.
// Fewer than twenty samples fall back to the median.
func tailPercentile(xs []float64) (pct, value float64) {
	for _, p := range tailLadder {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, quantile(xs, 0.5)
}

// drift is the mean of the last quarter of xs divided by the mean of
// its first quarter: 1 for a steady series, above 1 when per-op cost
// grows with run length.
func drift(xs []float64) float64 {
	q := len(xs) / 4
	if q == 0 {
		return 1
	}
	first := mean(xs[:q])
	if first == 0 {
		return 1
	}
	return mean(xs[len(xs)-q:]) / first
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
