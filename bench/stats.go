package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spreadShare is the inter-quartile range of v as a share of its median:
// the run-to-run noise figure every bound is judged against. The quartiles
// are the ones Python's statistics.quantiles(v, n=4) gives (its default,
// exclusive method), so the figure here is the figure the benchmark
// contract's checker computes. Fewer than two values have no spread.
func spreadShare(v []float64) float64 {
	s := sortedCopy(v)
	med := quantile(s, 0.5)
	if len(s) < 2 || med == 0 {
		return 0
	}
	quartile := func(i int) float64 {
		pos := i * (len(s) + 1)
		j := min(max(pos/4, 1), len(s)-1)
		delta := float64(pos - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// tailPerMille are the candidates of the percentile picker, highest
// first, in tenths of a percent so the sample arithmetic is exact.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of the n samples beyond it — a p95 read off 40 samples is two
// outliers, not a tail. It returns 0 when even p75 has too few.
func tailPercentile(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
