package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics: the oracle Dist.Percentile is
// held to. xs need not be sorted — but input that already is skips the
// copy and re-sort entirely.
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

func TestJainIndexKnownValues(t *testing.T) {
	if j := JainIndex([]float64{5, 5, 5, 5}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal shares: %v", j)
	}
	// One hog among n flows → 1/n.
	if j := JainIndex([]float64{10, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Errorf("single hog: %v", j)
	}
	if j := JainIndex(nil); j != 1 {
		t.Errorf("empty: %v", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 1 {
		t.Errorf("all zero: %v", j)
	}
}

// Property: Jain's index ∈ [1/n, 1] for non-negative inputs.
func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i := range xs {
			xs[i] = math.Abs(xs[i])
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 1
			}
		}
		j := JainIndex(xs)
		return j <= 1+1e-9 && j >= 1/float64(len(xs))-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); math.Abs(p-5.5) > 1e-12 {
		t.Errorf("p50 = %v", p)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	// Unsorted input must not matter.
	if p := Percentile([]float64{9, 1, 5}, 50); p != 5 {
		t.Errorf("unsorted p50 = %v", p)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2+1e-9 && v1 >= slices.Min(xs)-1e-9 && v2 <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || math.Abs(s.Mean-2) > 1e-12 {
		t.Errorf("summary: %+v", s)
	}
	if s.P50 != 2 {
		t.Errorf("p50 = %v", s.P50)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty summary: %+v", empty)
	}
}

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{4, -1, 7}
	if Mean(xs) != 10.0/3 || Max(xs) != 7 || Summarize(xs).Min != -1 {
		t.Errorf("mean/max/min: %v %v %v", Mean(xs), Max(xs), Summarize(xs).Min)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty aggregates not NaN")
	}
}
