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
		gv, gf := d.CDF()
		wv, wf := CDF(xs)
		for i := range wv {
			if gv[i] != wv[i] || gf[i] != wf[i] {
				t.Fatalf("%s: CDF diverges at %d", name, i)
			}
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

func TestDistMergeModes(t *testing.T) {
	a, b := NewExactDist(), NewExactDist()
	for _, v := range []float64{1, 5} {
		a.Observe(v)
	}
	for _, v := range []float64{3, 7} {
		b.Observe(v)
	}
	a.Merge(b)
	if got := a.Percentile(50); got != 4 {
		t.Errorf("merged median = %g, want 4", got)
	}
	if a.N() != 4 {
		t.Errorf("merged N = %d", a.N())
	}
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// TestDistMergeMatchesConcatenation: a merged collector answers exactly
// what the raw-slice helpers answer on the concatenated samples — also
// when the receiver had already been queried (and so sorted in place)
// before the merge, and when the merged-in collector had. One side comes
// from each constructor: NewExactDist is NewDist.
func TestDistMergeMatchesConcatenation(t *testing.T) {
	sets := sampleSets(2000)
	xs, ys := sets["lognormal"], sets["exponential"]
	all := append(append([]float64(nil), xs...), ys...)
	for _, tc := range []struct {
		name             string
		sortDst, sortSrc bool
	}{
		{"fresh", false, false},
		{"receiver already sorted", true, false},
		{"argument already sorted", false, true},
	} {
		dst, src := NewDist(), NewExactDist()
		for _, x := range xs {
			dst.Observe(x)
		}
		for _, y := range ys {
			src.Observe(y)
		}
		if tc.sortDst {
			dst.Percentile(50)
		}
		if tc.sortSrc {
			src.Percentile(50)
		}
		dst.Merge(src)
		dst.Merge(nil)
		if dst.N() != len(all) {
			t.Fatalf("%s: N = %d, want %d", tc.name, dst.N(), len(all))
		}
		for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
			if got, want := dst.Percentile(p), Percentile(all, p); got != want {
				t.Errorf("%s: P%v %v != %v", tc.name, p, got, want)
			}
		}
		if got, want := dst.Summary(), Summarize(all); got != want {
			t.Errorf("%s: Summary %+v != %+v", tc.name, got, want)
		}
		// Mean adds the two arrival-order sums, whichever side a query
		// had sorted in place before the merge.
		if got, want := dst.Mean(), (sum(xs)+sum(ys))/float64(len(all)); got != want {
			t.Errorf("%s: Mean %v != %v", tc.name, got, want)
		}
		if src.N() != len(ys) {
			t.Errorf("%s: Merge changed its argument: N = %d, want %d", tc.name, src.N(), len(ys))
		}
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
		if vals, fracs := d.CDF(); len(vals) != 0 || len(fracs) != 0 {
			t.Errorf("%s: CDF = %v, %v; want empty", name, vals, fracs)
		}
	}
}

// TestSortedFastPathMatches: pre-sorted input must give identical
// answers without mutating or re-copying, and Summarize/Percentile/CDF
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
	sv, sf := CDF(sorted)
	wv, wf := CDF(shuffled)
	for i := range wv {
		if sv[i] != wv[i] || sf[i] != wf[i] {
			t.Fatalf("CDF diverges at %d", i)
		}
	}
	// CDF must still return a copy on the fast path.
	sv[0] = -999
	if sorted[0] == -999 {
		t.Error("CDF fast path aliased the caller's slice")
	}
}
