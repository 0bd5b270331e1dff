package main

import (
	"math"
	"slices"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles when even);
// NaN when empty.
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

// fastest returns the minimum of xs; NaN when empty.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method — the same cut points as Python's
// statistics.quantiles(xs, n=4), which is what the benchmark contract
// measures spread with. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// worsening returns by what share of a the second value is worse, for a
// lower-is-better metric: (b−a)/a. Negative means b is better.
func worsening(a, b float64) float64 { return (b - a) / a }

// withinBound reports whether two measurements of one commit agree
// within bound in either direction.
func withinBound(a, b, bound float64) bool {
	return math.Abs(worsening(a, b)) <= bound && math.Abs(worsening(b, a)) <= bound
}
