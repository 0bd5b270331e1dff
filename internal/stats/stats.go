// Package stats provides the measurement helpers the evaluation uses:
// Jain's fairness index, percentiles/CDFs, time series sampling, and
// convergence-time detection.
package stats

import (
	"math"
	"sort"
)

// JainIndex returns Jain's fairness index of xs: (Σx)² / (n·Σx²).
// It is 1.0 for perfectly equal allocations and approaches 1/n when one
// value dominates. Returns 1 for empty or all-zero input (no contention
// to be unfair about).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	// Normalize by the maximum first so squaring cannot overflow even
	// for extreme inputs; the index is scale-invariant.
	m := Max(xs)
	if m == 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		v := x / m
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. xs need not be sorted — but
// input that already is (a prior Summarize/CDF call sorted a shared
// slice, or a Dist handed out its samples) skips the copy and re-sort
// entirely.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if sort.Float64sAreSorted(xs) {
		return percentileSorted(xs, p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum (NaN for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Summary bundles the distribution numbers the paper reports.
type Summary struct {
	N              int
	Mean, P50      float64
	P99, P999, Max float64
	Min            float64
}

// Summarize computes a Summary of xs. Already-sorted input takes a
// read-only fast path with no copy or re-sort, so callers that sort
// once can run Summarize, Percentile, and CDF for one sort's cost.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := xs
	if !sort.Float64sAreSorted(s) {
		s = append([]float64(nil), xs...)
		sort.Float64s(s)
	}
	return Summary{
		N:    len(s),
		Mean: Mean(s),
		P50:  percentileSorted(s, 50),
		P99:  percentileSorted(s, 99),
		P999: percentileSorted(s, 99.9),
		Max:  s[len(s)-1],
		Min:  s[0],
	}
}

// CDF returns (sorted values, cumulative fractions) for plotting. The
// values are always a fresh copy (callers plot and mutate them), but
// already-sorted input skips the re-sort.
func CDF(xs []float64) (vals, fracs []float64) {
	vals = append([]float64(nil), xs...)
	if !sort.Float64sAreSorted(vals) {
		sort.Float64s(vals)
	}
	fracs = make([]float64, len(vals))
	for i := range vals {
		fracs[i] = float64(i+1) / float64(len(vals))
	}
	return vals, fracs
}
