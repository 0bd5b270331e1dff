package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// lastResult decodes the final line the harness printed.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// The harness end to end, one repetition at minimum scale: it builds
// xpsim and the layers binary, runs every workload, checks the output
// and prints each metric BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs xpsim")
	}
	var out bytes.Buffer
	h, err := newHarness(&out, options{seed: 7, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range h.measureSet() {
		w := workloads[i]
		out.Reset()
		h.printEndToEnd(w, m)
		r := lastResult(t, out.String())
		if !r.Correct || r.Attempted != 1 || r.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, r.Correct, r.Attempted, r.Failed, out.String())
		}
		if len(r.Metrics) != len(e2eMetrics) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(r.Metrics), len(e2eMetrics))
		}
		for _, e := range e2eMetrics {
			if m, ok := r.Metrics[e.name]; !ok || m.Unit != e.unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v", w.name, e.name, m)
			}
		}
	}

	// Two workloads per layer: the second reuses the probes and mode taxes
	// the first measured.
	for _, name := range []string{"shuffle-traced", "protos-storm"} {
		out.Reset()
		w, _ := workloadByName(name)
		h.perLayer(w)
		r := lastResult(t, out.String())
		if !r.Correct || len(r.Metrics) != len(layerMetrics) {
			t.Errorf("%s per layer: correct=%v, %d metrics, want %d\n%s", name, r.Correct, len(r.Metrics), len(layerMetrics), out.String())
		}
		for _, lm := range layerMetrics {
			if m, ok := r.Metrics[lm.name]; !ok || m.Unit != lm.unit {
				t.Errorf("%s: %s = %+v", name, lm.name, m)
			}
		}
		if got := r.Metrics["obs.trace_events"].Value; w.traced && !(got > 0) {
			t.Errorf("obs.trace_events = %v on the traced workload", got)
		}
	}
}
