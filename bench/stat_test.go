package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndFastest(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := fastest([]float64{3, 1, 2}); got != 1 {
		t.Errorf("fastest = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(fastest(nil)) {
		t.Error("empty input must give NaN, so that a run without samples cannot report a number")
	}
}

// The contract measures spread with Python's
// statistics.quantiles(values, n=4); the expected values below are what
// Python 3 prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1.336, 1.292, 1.252, 1.366, 1.466, 1.386, 1.301}, 1.292, 1.386},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpreadAndBounds(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if spread([]float64{7}) != 0 {
		t.Error("one sample has no spread")
	}
	if got := worsening(2.0, 2.1); !near(got, 0.05) {
		t.Errorf("worsening(2.0, 2.1) = %v", got)
	}
	if !withinBound(2.0, 2.09, 0.05) {
		t.Error("+4.5% is within 5%")
	}
	if withinBound(2.0, 2.11, 0.05) || withinBound(2.11, 2.0, 0.05) {
		t.Error("5.5% apart is outside 5%, whichever side is first")
	}
}
