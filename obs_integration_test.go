package expresspass_test

// End-to-end observability test: give a run an instrumentation runtime
// exactly like `xpsim -trace out.jsonl -metrics metrics.csv fig17`
// does, run the fig17 shuffle at tiny scale, and check both
// outputs carry what the acceptance criteria require — a non-empty
// JSONL trace with credit-drop, data-enqueue, and queue-depth events,
// and a metrics CSV with per-port utilization time series.

import (
	"bytes"
	"strings"
	"testing"

	"expresspass"
)

func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	t.Parallel()
	var trace, metrics bytes.Buffer
	cdrop, denq, qd, fb := mustType(t, "credit_drop"), mustType(t, "data_enq"),
		mustType(t, "qdepth"), mustType(t, "feedback")
	rt := expresspass.NewObsRuntime(expresspass.ObsConfig{
		Tracer:     expresspass.NewTracer(expresspass.NewJSONLTraceSink(&trace), cdrop, denq, qd, fb),
		MetricsOut: &metrics,
	})

	var out bytes.Buffer
	err := expresspass.RunExperiment("fig17",
		expresspass.ExperimentParams{Scale: 0.02, Seed: 42, Obs: rt}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(trace.String()), "\n")
	if len(lines) < 100 {
		t.Fatalf("trace has %d lines, want a busy event stream", len(lines))
	}
	for _, ev := range []string{"credit_drop", "data_enq", "qdepth", "feedback"} {
		if !strings.Contains(trace.String(), `"ev":"`+ev+`"`) {
			t.Errorf("trace missing %q events", ev)
		}
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"t_us":`) || !strings.HasSuffix(l, "}") {
			t.Fatalf("malformed trace line: %q", l)
		}
	}

	mlines := strings.Split(strings.TrimSpace(metrics.String()), "\n")
	if mlines[0] != "t_us,scope,metric,value" {
		t.Fatalf("metrics header = %q", mlines[0])
	}
	utilRows, scopes := 0, map[string]bool{}
	for _, l := range mlines[1:] {
		f := strings.SplitN(l, ",", 4)
		if len(f) != 4 {
			t.Fatalf("malformed metrics row: %q", l)
		}
		scopes[f[1]] = true
		if strings.HasPrefix(f[2], "port/") && strings.HasSuffix(f[2], "/util") {
			utilRows++
		}
	}
	if utilRows < 10 {
		t.Errorf("metrics CSV has %d per-port util samples, want a time series", utilRows)
	}
	// fig17 builds one network per protocol arm; each gets its own scope.
	if len(scopes) < 2 {
		t.Errorf("metric scopes = %v, want one per experiment arm", scopes)
	}
}

// TestObservabilityOffByDefault pins the zero-overhead contract's wiring
// half: a network built outside any run carries no tracer or metrics.
func TestObservabilityOffByDefault(t *testing.T) {
	eng := expresspass.NewEngine(1)
	net := expresspass.NewNetwork(eng)
	if net.Tracer() != nil || net.Metrics() != nil {
		t.Error("network picked up instrumentation outside any run")
	}
}

func mustType(t *testing.T, name string) expresspass.TraceEventType {
	t.Helper()
	ty, ok := expresspass.EventTypeByName(name)
	if !ok {
		t.Fatalf("unknown event type %q", name)
	}
	return ty
}
