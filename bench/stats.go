package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest value with at least p% of the
// samples at or below it. It returns NaN on an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supportedPercentiles are the tail percentiles a report may quote,
// lowest first.
var supportedPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupported returns the highest of supportedPercentiles that
// still leaves at least ten of n samples beyond it, the rule the
// choosing-metrics guide gives for how far into the tail a sample of
// that size can be read. It returns 0 when even the median is not
// supported (n < 20).
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range supportedPercentiles {
		beyond := int(float64(n)*(100-p)/100 + 1e-9) // the epsilon absorbs 99.9's binary rounding
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midmean is the mean of the middle half of vals (the interquartile
// mean): like the median it ignores the slowest and fastest quarter, and
// unlike it, it does not jump between two neighbouring values when those
// are coarse, such as statements per one-second slice.
func midmean(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	lo, hi := n/4, n-n/4
	sum := 0.0
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(values, n=4) (exclusive), which is the
// one the benchmark contract measures spread with. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}
