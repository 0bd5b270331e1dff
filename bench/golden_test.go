package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

type declared struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// What the harness emits and what BENCHMARK.json declares are two lists
// of the same names; this is the test that keeps them one list.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command = %v, want %v", decl.Command, want)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", decl.Paths)
	}

	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: declared %v, harness runs %v", names, have)
	}

	type nu struct{ name, unit string }
	var declE2E, haveE2E, declLayer, haveLayer []nu
	for _, m := range decl.EndToEnd {
		declE2E = append(declE2E, nu{m.Name, m.Unit})
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better=%q bound=%v", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range e2eMetrics {
		haveE2E = append(haveE2E, nu{m.name, m.unit})
	}
	if !reflect.DeepEqual(declE2E, haveE2E) {
		t.Errorf("end_to_end: declared %v, harness emits %v", declE2E, haveE2E)
	}
	for _, m := range decl.PerLayer {
		declLayer = append(declLayer, nu{m.Name, m.Unit})
	}
	for _, m := range layerMetrics {
		haveLayer = append(haveLayer, nu{m.name, m.unit})
	}
	if !reflect.DeepEqual(declLayer, haveLayer) {
		t.Errorf("per_layer: declared %v, harness emits %v", declLayer, haveLayer)
	}
}
