package obs

import "sort"

// Registry is an ordered set of named metrics: pull-based gauges and
// fixed-bucket histograms. Like the simulator it observes, it is
// single-goroutine and lock-free; metrics cost nothing until a snapshot
// or sampler actually reads them (gauges are closures evaluated lazily).
//
// Registration is idempotent by name so independent components can
// share a metric (Histogram returns the existing instrument).
type Registry struct {
	byName  map[string]int
	entries []entry
}

type metricKind uint8

const (
	kindGauge metricKind = iota
	kindHistogram
)

type entry struct {
	name  string
	kind  metricKind
	gauge func() float64
	hist  *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Histogram counts observations into fixed buckets with the given
// upper bounds (ascending; an implicit +Inf bucket is appended).
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.n++
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Quantile returns an estimate of the q-quantile (0 < q <= 1) assuming
// samples are uniform within a bucket. With no samples it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (target - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// Gauge registers a pull-based gauge; fn is evaluated at each snapshot.
// Re-registering a name replaces the previous gauge.
func (r *Registry) Gauge(name string, fn func() float64) {
	if i, ok := r.byName[name]; ok {
		r.entries[i].gauge = fn
		return
	}
	r.add(entry{name: name, kind: kindGauge, gauge: fn})
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if i, ok := r.byName[name]; ok {
		return r.entries[i].hist
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	r.add(entry{name: name, kind: kindHistogram, hist: h})
	return h
}

func (r *Registry) add(e entry) {
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Unregister removes the metric registered under name and reports
// whether it existed. Later entries keep their relative registration
// order (snapshots stay ordered); the splice is O(n) in registry size,
// which is bounded by the per-network gauge budget, not by flow count.
func (r *Registry) Unregister(name string) bool {
	i, ok := r.byName[name]
	if !ok {
		return false
	}
	delete(r.byName, name)
	copy(r.entries[i:], r.entries[i+1:])
	r.entries[len(r.entries)-1] = entry{}
	r.entries = r.entries[:len(r.entries)-1]
	for j := i; j < len(r.entries); j++ {
		r.byName[r.entries[j].name] = j
	}
	return true
}

// Sample is one named value of a snapshot.
type Sample struct {
	Name  string
	Value float64
}

// Snapshot evaluates every metric and returns the values in
// registration order. Histograms expand to four derived samples:
// name/count, name/sum, name/p50, name/p99.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for _, e := range r.entries {
		switch e.kind {
		case kindGauge:
			out = append(out, Sample{e.name, e.gauge()})
		case kindHistogram:
			out = append(out,
				Sample{e.name + "/count", float64(e.hist.Count())},
				Sample{e.name + "/sum", e.hist.Sum()},
				Sample{e.name + "/p50", e.hist.Quantile(0.50)},
				Sample{e.name + "/p99", e.hist.Quantile(0.99)})
		}
	}
	return out
}

// FCTBoundsMS are the default flow-completion-time histogram buckets in
// milliseconds, log-spaced across the range the paper's workloads span
// (tens of µs short flows to multi-second stragglers, Figs 17/19).
var FCTBoundsMS = []float64{
	0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}
