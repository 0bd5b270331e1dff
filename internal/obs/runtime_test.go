package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"expresspass/internal/sim"
)

// TestTrialLifecycle walks a trial through the sweep protocol —
// StartSweep, then FinishTrial with the engines it ran — and checks the
// runtime folds a trial's engines into its totals and counts it done
// only at FinishTrial.
func TestTrialLifecycle(t *testing.T) {
	rt := NewRuntime(Config{
		Tracer:     NewTracer(NewJSONLSink(io.Discard)),
		MetricsOut: io.Discard,
	})
	rt.StartSweep(4)
	eng := sim.New(1)
	done := false
	eng.At(5*sim.Microsecond, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("engine did not run")
	}
	if ev := rt.Totals().Executed; ev != 0 || rt.sweepDone.Load() != 0 {
		t.Errorf("before FinishTrial: %d engine events, %d trials done; want 0, 0", ev, rt.sweepDone.Load())
	}
	rt.FinishTrial([]*sim.Engine{eng})
	if ev := rt.Totals().Executed; ev != 1 || rt.sweepDone.Load() != 1 {
		t.Errorf("after FinishTrial: %d engine events, %d trials done; want 1, 1", ev, rt.sweepDone.Load())
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingTrialWritesThrough checks the runtime holds nothing back
// for a trial: events and rows reach the sinks as they are emitted,
// before FinishTrial, which only folds the engine totals.
func TestStreamingTrialWritesThrough(t *testing.T) {
	var trace, metrics bytes.Buffer
	rt := NewRuntime(Config{
		Tracer:     NewTracer(NewJSONLSink(&trace)),
		MetricsOut: &metrics,
	})
	rt.Tracer().Emit(Event{T: sim.Microsecond, Type: EvCreditSent, Scope: "a->b"})
	rt.WriteRow(sim.Microsecond, "t0.0", "port/x/util", 0.5)
	rt.mu.Lock()
	rt.mw.flush()
	rt.mu.Unlock()
	if !strings.Contains(metrics.String(), "t0.0,port/x/util,0.5") {
		t.Error("runtime held its metrics row back")
	}
	eng := sim.New(1)
	eng.At(sim.Microsecond, func() {})
	eng.Run()
	rt.FinishTrial([]*sim.Engine{eng})
	if rt.Totals().Executed == 0 {
		t.Error("FinishTrial did not fold engine totals")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"ev":"credit_sent"`) {
		t.Error("runtime lost its trace event")
	}
}

// TestHeartbeatProgress pins the heartbeat line format and its rate
// limit: the first FinishTrial after StartSweep prints immediately,
// back-to-back completions inside the same wall-clock second do not.
func TestHeartbeatProgress(t *testing.T) {
	var prog bytes.Buffer
	rt := NewRuntime(Config{Progress: &prog})
	rt.SetPhase("fig18")
	rt.StartSweep(4)
	rt.FinishTrial(nil)
	first := prog.String()
	if !strings.HasPrefix(first, "[fig18] 1/4 trials, ") || !strings.Contains(first, " ev/s\n") {
		t.Fatalf("heartbeat line = %q", first)
	}
	rt.FinishTrial(nil)
	rt.FinishTrial(nil)
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
	rt.FinishTrial(nil)
	rt.heartbeat(true) // must not panic with nil Progress
	if rt.sweepDone.Load() != 1 {
		t.Error("FinishTrial did not count")
	}
}

func TestHumanCount(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {999, "999"}, {1500, "1.5k"}, {2.5e6, "2.5M"}, {3.2e9, "3.2G"},
		// rounding that reaches the next unit takes its suffix
		{999.6, "1.0k"}, {999960, "1.0M"}, {999960000, "1.0G"},
		{999.4, "999"}, {999940, "999.9k"}, {999940000, "999.9M"},
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
	eng.At(sim.Microsecond, func() {})
	eng.Run()
	rt.FinishTrial([]*sim.Engine{eng})
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
