package main

import (
	"math"
	"sort"
)

// sortedCopy returns vs ascending, leaving the input untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of vs: the smallest sample
// with at least q·n samples at or below it. Empty input yields 0; q
// outside (0, 1] clamps to the first or last sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count — the rep-level aggregate, where n is 3 to 7 and the
// nearest-rank rule would always pick the lower neighbour.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the nearest-rank first and third quartiles.
func quartiles(vs []float64) (q1, q3 float64) {
	return quantile(vs, 0.25), quantile(vs, 0.75)
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be worth reporting (choosing-metrics guide §1).
const tailBeyond = 10

// tailPercentile returns the highest percentile not above want that still
// has tailBeyond samples beyond its nearest-rank position among n. With
// too few samples for any tail it falls back to the median.
func tailPercentile(n int, want float64) float64 {
	if n-int(math.Ceil(want*float64(n))) >= tailBeyond {
		return want
	}
	if n <= 2*tailBeyond {
		return 0.5
	}
	return float64(n-tailBeyond) / float64(n)
}
