package obs

import (
	"bytes"
	"strings"
	"testing"

	"expresspass/internal/sim"
)

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	drops := 3.0
	r.Gauge("drops", func() float64 { return drops })
	x := 7.5
	r.Gauge("depth", func() float64 { return x })
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(snap))
	}
	if snap[0].Name != "drops" || snap[0].Value != 3 {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "depth" || snap[1].Value != 7.5 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
	x = 9
	if got := r.Snapshot()[1].Value; got != 9 {
		t.Errorf("gauge not re-evaluated: %g", got)
	}
	r.Gauge("drops", func() float64 { return 4 })
	if snap := r.Snapshot(); len(snap) != 2 || snap[0].Value != 4 {
		t.Errorf("re-registering a name did not replace its gauge in place: %+v", snap)
	}
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	r.Gauge("keep/a", func() float64 { return 0 })
	r.Gauge("flow/1/rate", func() float64 { return 1 })
	r.Gauge("flow/1/w", func() float64 { return 2 })
	r.Gauge("keep/b", func() float64 { return 3 })

	if !r.Unregister("flow/1/rate") {
		t.Fatal("Unregister of a present metric returned false")
	}
	if r.Unregister("flow/1/rate") {
		t.Error("second Unregister of the same name returned true")
	}
	if r.Unregister("never/registered") {
		t.Error("Unregister of an unknown name returned true")
	}

	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	want := "keep/a flow/1/w keep/b"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("post-unregister names = %q, want %q (registration order kept)", got, want)
	}

	// Surviving metrics stay addressable by name after the index
	// reshuffle: re-registering one replaces it where it stands.
	r.Gauge("keep/b", func() float64 { return 5 })
	if snap := r.Snapshot(); len(snap) != 3 || snap[2].Name != "keep/b" || snap[2].Value != 5 {
		t.Errorf("gauge identity lost after Unregister compaction: %+v", snap)
	}

	// Re-registering a removed name starts fresh at the tail.
	r.Gauge("flow/1/rate", func() float64 { return 9 })
	snap = r.Snapshot()
	if last := snap[len(snap)-1]; last.Name != "flow/1/rate" || last.Value != 9 {
		t.Errorf("re-registered gauge = %+v, want flow/1/rate=9 at tail", last)
	}
}

func TestRuntimeMetricsCSV(t *testing.T) {
	var buf bytes.Buffer
	rt := NewRuntime(Config{MetricsOut: &buf})
	if !rt.MetricsEnabled() {
		t.Fatal("metrics should be enabled")
	}
	if rt.Interval() != sim.Millisecond {
		t.Errorf("default interval = %v", rt.Interval())
	}
	rt.WriteRow(1500*sim.Nanosecond, "t0.0", "port/a->b/util", 0.875)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	want := "t_us,scope,metric,value\n1.5,t0.0,port/a->b/util,0.875\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

// TestRuntimeEngineTotals: the runtime's totals are those of its
// finished trials — events add up across trials, the peak is a max, and
// a trial counts when it finishes, in whatever order trials finish.
func TestRuntimeEngineTotals(t *testing.T) {
	rt := NewRuntime(Config{})
	e1, e2 := sim.New(1), sim.New(2)
	for i := 0; i < 10; i++ {
		e1.After(sim.Duration(i)*sim.Nanosecond, func() {})
	}
	e2.After(sim.Nanosecond, func() {})
	e1.Run()
	e2.Run()
	if events := rt.Totals().Executed; events != 0 {
		t.Errorf("events = %d before any trial finished, want 0", events)
	}
	rt.FinishTrial([]*sim.Engine{e2})
	if events := rt.Totals().Executed; events != 1 {
		t.Errorf("events = %d after trial 1 finished, want 1", events)
	}
	rt.FinishTrial([]*sim.Engine{e1})
	s := rt.Totals()
	if s.Executed != 11 {
		t.Errorf("events = %d, want 11", s.Executed)
	}
	if s.PeakLive != 10 {
		t.Errorf("live-event peak = %d, want 10", s.PeakLive)
	}
}
