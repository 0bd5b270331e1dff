package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sampleSets builds dense FCT-shaped corpora: the distributions the
// experiments actually observe (log-normal-ish flow times, exponential
// gaps, uniform jitter, heavy point masses).
func sampleSets(n int) map[string][]float64 {
	r := rand.New(rand.NewSource(7))
	sets := map[string][]float64{}
	logn := make([]float64, n)
	for i := range logn {
		logn[i] = math.Exp(r.NormFloat64()*1.5 - 7) // ~µs..ms FCTs
	}
	sets["lognormal"] = logn
	exp := make([]float64, n)
	for i := range exp {
		exp[i] = r.ExpFloat64() * 3.2e-4
	}
	sets["exponential"] = exp
	uni := make([]float64, n)
	for i := range uni {
		uni[i] = 5 + 10*r.Float64()
	}
	sets["uniform"] = uni
	mix := make([]float64, n)
	for i := range mix {
		if i%10 == 0 {
			mix[i] = 1.0 // heavy point mass
		} else {
			mix[i] = 0.001 * (1 + r.Float64())
		}
	}
	sets["pointmass"] = mix
	return sets
}

// TestDistExactBitIdentical pins the migration contract: Dist answers
// are bit-identical to the historical slice-based calls, including the
// arrival-order Mean and the sorted-order Summary mean.
func TestDistExactBitIdentical(t *testing.T) {
	for name, xs := range sampleSets(5000) {
		d := NewDist()
		raw := append([]float64(nil), xs...) // Dist must not alias caller data
		for _, x := range raw {
			d.Observe(x)
		}
		if got, want := d.Mean(), Mean(xs); got != want {
			t.Errorf("%s: Mean %v != %v", name, got, want)
		}
		for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
			if got, want := d.Percentile(p), Percentile(xs, p); got != want {
				t.Errorf("%s: P%v %v != %v", name, p, got, want)
			}
		}
		if got, want := d.Summary(), Summarize(xs); got != want {
			t.Errorf("%s: Summary %+v != %+v", name, got, want)
		}
	}
}

// TestDistInterleavedQueriesResort: observations after a query must
// invalidate the cached sort.
func TestDistInterleavedQueriesResort(t *testing.T) {
	d := NewDist()
	for _, v := range []float64{5, 1, 3} {
		d.Observe(v)
	}
	if got := d.Percentile(100); got != 5 {
		t.Fatalf("max = %g", got)
	}
	d.Observe(9)
	d.Observe(0)
	if got := d.Percentile(100); got != 9 {
		t.Errorf("max after more samples = %g, want 9", got)
	}
	if got := d.Percentile(0); got != 0 {
		t.Errorf("min after more samples = %g, want 0", got)
	}
	if got, want := d.Summary(), Summarize([]float64{5, 1, 3, 9, 0}); got != want {
		t.Errorf("summary %+v != %+v", got, want)
	}
}

// TestDistEmpty: a collector nothing was observed into answers the same
// way the raw-slice helpers answer an empty slice.
func TestDistEmpty(t *testing.T) {
	for name, d := range map[string]*Dist{"NewDist": NewDist(), "NewExactDist": NewExactDist()} {
		if d.N() != 0 {
			t.Errorf("%s: N = %d", name, d.N())
		}
		if got := d.Summary(); got != (Summary{}) {
			t.Errorf("%s: Summary = %+v, want zero", name, got)
		}
		if got := d.Percentile(50); !math.IsNaN(got) {
			t.Errorf("%s: Percentile = %g, want NaN", name, got)
		}
		if got := d.Mean(); !math.IsNaN(got) {
			t.Errorf("%s: Mean = %g, want NaN", name, got)
		}
	}
}

// TestSortedFastPathMatches: pre-sorted input must give identical
// answers without mutating or re-copying, and Summarize/Percentile
// agree between sorted and shuffled views of the same data.
func TestSortedFastPathMatches(t *testing.T) {
	shuffled := sampleSets(3000)["uniform"]
	sorted := append([]float64(nil), shuffled...)
	sort.Float64s(sorted)
	if got, want := Summarize(sorted), Summarize(shuffled); got != want {
		t.Errorf("Summarize sorted %+v != shuffled %+v", got, want)
	}
	if got, want := Percentile(sorted, 99), Percentile(shuffled, 99); got != want {
		t.Errorf("Percentile sorted %v != shuffled %v", got, want)
	}
}
