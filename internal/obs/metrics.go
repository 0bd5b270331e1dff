package obs

// Registry is an ordered set of named pull-based gauges. Like the
// simulator it observes, it is single-goroutine and lock-free; metrics
// cost nothing until a snapshot or sampler actually reads them (gauges
// are closures evaluated lazily).
type Registry struct {
	byName  map[string]int
	entries []entry
}

type entry struct {
	name  string
	gauge func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Gauge registers a pull-based gauge; fn is evaluated at each snapshot.
// Re-registering a name replaces the previous gauge.
func (r *Registry) Gauge(name string, fn func() float64) {
	if i, ok := r.byName[name]; ok {
		r.entries[i].gauge = fn
		return
	}
	r.byName[name] = len(r.entries)
	r.entries = append(r.entries, entry{name: name, gauge: fn})
}

// Unregister removes the gauge registered under name and reports
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

// Snapshot evaluates every gauge and returns the values in
// registration order.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, Sample{e.name, e.gauge()})
	}
	return out
}
