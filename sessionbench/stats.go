package main

import (
	"fmt"
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder are the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of the ladder (nearest rank) that
// leaves at least ten samples beyond it. With fewer samples than that
// needs, it returns p75 and says so in the note: a run too short for a
// real tail still reports a value above the median, never a maximum of a
// handful of samples.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), "no samples"
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return s[rank-1], fmt.Sprintf("p%g of n=%d, %d samples beyond it", p, n, n-rank)
		}
	}
	rank := int(math.Ceil(0.75 * float64(n)))
	return s[rank-1], fmt.Sprintf("p75 of n=%d, only %d samples beyond it (fewer than ten: not a true tail)", n, n-rank)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a rate over nothing observed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
