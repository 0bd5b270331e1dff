package stats

import (
	"math"
	"sort"
)

// Dist accumulates a sample distribution (FCTs, inter-credit gaps,
// queue delays) and answers the distribution questions the evaluation
// asks — mean, percentiles, Summary, CDF. Samples are retained and
// sorted once, lazily, on the first quantile query (re-sorting only
// after new samples arrive), so a Summary followed by a Percentile pays
// for one sort, not two. Results are bit-identical to
// Summarize/Percentile on the raw slice.
//
// A Dist is single-goroutine like the trial that owns it.
type Dist struct {
	samples []float64
	sorted  bool
	sum     float64 // running sum in arrival order (matches Mean(xs))
}

// NewDist returns an empty collector.
func NewDist() *Dist { return &Dist{} }

// NewExactDist is NewDist under the name it had while a Dist could also
// be approximate; the benchmark harness (bench/layers) is compiled
// against it.
func NewExactDist() *Dist { return NewDist() }

// Observe records one sample.
func (d *Dist) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
}

// N returns the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the arithmetic mean in arrival-order summation — the
// same floating-point result as Mean() over the raw sample slice. NaN
// when empty.
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	return d.sum / float64(len(d.samples))
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (0..100), matching
// Percentile() on the raw slice bit-for-bit. NaN when empty.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	d.ensureSorted()
	return percentileSorted(d.samples, p)
}

// Summary returns the distribution summary: Summarize() of the samples
// (sorted-order mean included), sorted once here rather than per call.
func (d *Dist) Summary() Summary {
	d.ensureSorted()
	return Summarize(d.samples)
}

// CDF returns (sorted values, cumulative fractions) for plotting, one
// point per sample.
func (d *Dist) CDF() (vals, fracs []float64) {
	d.ensureSorted()
	return CDF(d.samples)
}

// Merge folds o's samples into d.
func (d *Dist) Merge(o *Dist) {
	if o == nil {
		return
	}
	d.samples = append(d.samples, o.samples...)
	d.sorted = false
	d.sum += o.sum
}
