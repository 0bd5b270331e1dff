//go:build benchlayers

package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// Every probe, one token iteration: each must run to the end against the
// current internal APIs and report only names BENCHMARK.json declares.
func TestEveryProbeRuns(t *testing.T) {
	smoke = true
	m := map[string]float64{}
	probeSim(m, 7)
	probeNetem(m, 7)
	probeBuild(m, 7)
	probeTransports(m, 7)
	probeLifecycle(m, 7)
	probeObs(m, 7)
	probeStats(m)
	spans := probeCell(m, 7)

	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, p := range decl.PerLayer {
		declared[p.Name] = true
	}
	for name, v := range m {
		if !declared[name] {
			t.Errorf("%s is not a per_layer metric of BENCHMARK.json", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 && name != "trace.overhead_pct" {
			t.Errorf("%s = %v", name, v)
		}
	}

	// cell, topology, workload, lifecycle, sim.run, stats: one run id, the
	// cell the parent of the rest, self time never above the duration.
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6", len(spans))
	}
	for i, s := range spans {
		if s.Run != spans[0].Run || s.End < s.Start || s.Self > s.End-s.Start+1e-9 {
			t.Errorf("span %d: %+v", i, s)
		}
		if want := map[bool]int{true: -1, false: 0}[i == 0]; s.Parent != want {
			t.Errorf("span %s: parent %d, want %d", s.Name, s.Parent, want)
		}
	}
}
