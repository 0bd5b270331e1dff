package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"expresspass/internal/sim"
)

// TestTrialLifecycle walks a trial scope through the sweep protocol —
// StartSweep, BeginTrial, AttachEngine, Finish — and checks the scope
// mirrors the runtime, labels its metrics scopes by trial index, and
// folds its engine totals into the runtime's and counts itself done only
// at Finish.
func TestTrialLifecycle(t *testing.T) {
	rt := NewRuntime(Config{
		Tracer:     NewTracer(NewJSONLSink(io.Discard)),
		MetricsOut: io.Discard,
	})
	rt.StartSweep(4)
	tr := rt.BeginTrial(3)
	if tr.Tracer() != rt.Tracer() || !tr.MetricsEnabled() || tr.Interval() != rt.Interval() {
		t.Error("trial scope does not mirror runtime config")
	}
	for _, want := range []string{"t3.0", "t3.1"} {
		if s := tr.NextScope(); s != want {
			t.Errorf("NextScope = %q, want %q", s, want)
		}
	}

	eng := sim.New(1)
	tr.AttachEngine(eng)
	done := false
	eng.At(5*sim.Microsecond, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("engine did not run")
	}
	if ev, _ := rt.EngineTotals(); ev != 0 || rt.sweepDone.Load() != 0 {
		t.Errorf("before Finish: %d engine events, %d trials done; want 0, 0", ev, rt.sweepDone.Load())
	}
	tr.Finish()
	if ev, _ := rt.EngineTotals(); ev != 1 || rt.sweepDone.Load() != 1 {
		t.Errorf("after Finish: %d engine events, %d trials done; want 1, 1", ev, rt.sweepDone.Load())
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingTrialWritesThrough checks a trial holds nothing back:
// events and rows reach the shared runtime as they are emitted, before
// Finish, which only folds the engine totals.
func TestStreamingTrialWritesThrough(t *testing.T) {
	var trace, metrics bytes.Buffer
	rt := NewRuntime(Config{
		Tracer:     NewTracer(NewJSONLSink(&trace)),
		MetricsOut: &metrics,
	})
	tr := rt.BeginTrial(0)
	tr.Tracer().Emit(Event{T: sim.Microsecond, Type: EvCreditSent, Scope: "a->b"})
	tr.WriteRow(sim.Microsecond, "t0.0", "port/x/util", 0.5)
	rt.mu.Lock()
	rt.mw.flush()
	rt.mu.Unlock()
	if !strings.Contains(metrics.String(), "t0.0,port/x/util,0.5") {
		t.Error("trial held its metrics row back")
	}
	eng := sim.New(1)
	tr.AttachEngine(eng)
	eng.At(sim.Microsecond, func() {})
	eng.Run()
	tr.Finish()
	if ev, _ := rt.EngineTotals(); ev == 0 {
		t.Error("Finish did not fold engine totals")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"ev":"credit_sent"`) {
		t.Error("trial lost its trace event")
	}
}

// TestHeartbeatProgress pins the heartbeat line format and its rate
// limit: the first trialDone after StartSweep prints immediately,
// back-to-back completions inside the same wall-clock second do not.
func TestHeartbeatProgress(t *testing.T) {
	var prog bytes.Buffer
	rt := NewRuntime(Config{Progress: &prog})
	rt.SetPhase("fig18")
	rt.StartSweep(4)
	rt.trialDone()
	first := prog.String()
	if !strings.HasPrefix(first, "[fig18] 1/4 trials, ") || !strings.Contains(first, " ev/s\n") {
		t.Fatalf("heartbeat line = %q", first)
	}
	rt.trialDone()
	rt.trialDone()
	if prog.String() != first {
		t.Errorf("rate limit failed: extra heartbeats within one second:\n%s", prog.String())
	}
	rt.heartbeat(true)
	if strings.Count(prog.String(), "\n") != 2 {
		t.Errorf("forced heartbeat did not print:\n%s", prog.String())
	}
	if !strings.Contains(prog.String(), "[fig18] 3/4 trials, ") {
		t.Errorf("forced heartbeat has stale counters:\n%s", prog.String())
	}
}

// TestHeartbeatDisabled checks a runtime without a Progress writer
// counts trials but never formats a line.
func TestHeartbeatDisabled(t *testing.T) {
	rt := NewRuntime(Config{})
	rt.StartSweep(2)
	rt.trialDone()
	rt.heartbeat(true) // must not panic with nil Progress
	if rt.sweepDone.Load() != 1 {
		t.Error("trialDone did not count")
	}
}

func TestHumanCount(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {999, "999"}, {1500, "1.5k"}, {2.5e6, "2.5M"}, {3.2e9, "3.2G"},
	} {
		if got := humanCount(tc.v); got != tc.want {
			t.Errorf("humanCount(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestResources exercises the end-of-run telemetry snapshot. Peak RSS
// comes from /proc/self/status, so on Linux it must be nonzero and at
// least as large as the current heap.
func TestResources(t *testing.T) {
	rt := NewRuntime(Config{})
	eng := sim.New(1)
	tr := rt.BeginTrial(0)
	tr.AttachEngine(eng)
	eng.At(sim.Microsecond, func() {})
	eng.Run()
	tr.Finish()
	time.Sleep(time.Millisecond) // Elapsed() must be > 0
	res, rate := rt.Resources()
	if res.PeakRSSBytes == 0 {
		t.Skip("VmHWM unavailable on this platform")
	}
	if res.HeapAllocBytes == 0 {
		t.Error("HeapAllocBytes = 0")
	}
	if rate <= 0 {
		t.Errorf("event rate = %g, want > 0", rate)
	}
	if rt.Elapsed() <= 0 {
		t.Error("Elapsed() <= 0")
	}
}
