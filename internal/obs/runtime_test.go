package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"expresspass/internal/sim"
)

// TestTrialLifecycle walks a buffering trial scope through the full
// sweep protocol — BeginTrial behind the head, AttachEngine, buffered
// trace + metrics, Finish — and checks the engine totals land in the
// runtime's at Finish while the buffers wait for trials 0–2: trial 3
// replays into the shared runtime only once all three have finished.
func TestTrialLifecycle(t *testing.T) {
	var trace, metrics bytes.Buffer
	rt := NewRuntime(Config{
		Tracer:     NewTracer(NewJSONLSink(&trace)),
		MetricsOut: &metrics,
	})
	flushed := func() bool {
		rt.mu.Lock()
		rt.mw.flush()
		rt.mu.Unlock()
		return metrics.Len() != 0
	}

	tr := rt.BeginTrial(3)
	if tr.Tracer() == nil || tr.Tracer() == rt.Tracer() {
		t.Fatal("trial 3 of a tracing runtime does not buffer behind head 0")
	}
	if !tr.MetricsEnabled() || tr.Interval() != rt.Interval() {
		t.Error("trial scope does not mirror runtime config")
	}
	if s := tr.NextScope(); s != "t3.0" {
		t.Errorf("NextScope = %q, want t3.0", s)
	}

	eng := sim.New(1)
	tr.AttachEngine(eng)
	done := false
	eng.At(5*sim.Microsecond, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("engine did not run")
	}

	tr.Tracer().Emit(Event{T: sim.Microsecond, Type: EvCreditSent, Scope: "a->b"})
	tr.WriteRow(sim.Microsecond, "t3.0", "port/x/util", 0.5)
	tr.Finish()
	if ev, _ := rt.EngineTotals(); ev != 1 {
		t.Errorf("Finish folded %d engine events, want the one event once", ev)
	}
	for _, idx := range []int{2, 0, 1} {
		if flushed() {
			t.Fatalf("trial 3 replayed before trial %d finished:\n%s", idx, metrics.String())
		}
		rt.BeginTrial(idx).Finish()
	}
	if !flushed() {
		t.Fatal("trial 3 not replayed once trials 0–2 finished")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"ev":"credit_sent"`) {
		t.Errorf("replayed trace missing buffered event:\n%s", trace.String())
	}
	if !strings.Contains(metrics.String(), "t3.0,port/x/util,0.5") {
		t.Errorf("replayed metrics missing buffered row:\n%s", metrics.String())
	}
}

// TestStreamingTrialWritesThrough checks the head's scope: no
// buffering — events and rows reach the shared runtime as they are
// emitted, and Finish only folds the engine totals.
func TestStreamingTrialWritesThrough(t *testing.T) {
	var trace, metrics bytes.Buffer
	rt := NewRuntime(Config{
		Tracer:     NewTracer(NewJSONLSink(&trace)),
		MetricsOut: &metrics,
	})
	tr := rt.BeginTrial(0)
	if tr.Tracer() != rt.Tracer() {
		t.Fatal("head trial does not share the runtime tracer")
	}
	if s := tr.NextScope(); s != "t0.0" {
		t.Errorf("NextScope = %q, want the same labels as buffered trials", s)
	}
	tr.Tracer().Emit(Event{T: sim.Microsecond, Type: EvCreditSent, Scope: "a->b"})
	tr.WriteRow(sim.Microsecond, "t0.0", "port/x/util", 0.5)
	rt.mu.Lock()
	rt.mw.flush()
	rt.mu.Unlock()
	if !strings.Contains(metrics.String(), "t0.0,port/x/util,0.5") {
		t.Error("head trial buffered its metrics row")
	}
	eng := sim.New(1)
	tr.AttachEngine(eng)
	eng.At(sim.Microsecond, func() {})
	eng.Run()
	tr.Finish()
	if ev, _ := rt.EngineTotals(); ev == 0 {
		t.Error("Finish did not fold engine totals")
	}
	if rt.PeakBufferedBytes() != 0 {
		t.Errorf("head trial buffered %d bytes", rt.PeakBufferedBytes())
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"ev":"credit_sent"`) {
		t.Error("head trial lost its trace event")
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

// TestBufferedBytesGauge checks the worker-buffer telemetry: a trial
// behind the head charges the runtime gauge as events and rows
// accumulate, the peak survives the replay, and the live gauge returns
// to zero once the head finishes and the buffers replay into the shared
// outputs.
func TestBufferedBytesGauge(t *testing.T) {
	var trace, metrics bytes.Buffer
	rt := NewRuntime(Config{
		Tracer:     NewTracer(NewJSONLSink(&trace)),
		MetricsOut: &metrics,
	})
	if rt.BufferedBytes() != 0 || rt.PeakBufferedBytes() != 0 {
		t.Fatal("fresh runtime reports buffered bytes")
	}
	head := rt.BeginTrial(0)
	tr := rt.BeginTrial(1)
	tr.Tracer().Emit(Event{T: sim.Microsecond, Type: EvCreditSent, Scope: "a->b"})
	tr.WriteRow(sim.Microsecond, "t1.0", "port/x/util", 0.5)
	live := rt.BufferedBytes()
	if live <= 0 {
		t.Fatalf("BufferedBytes = %d after buffering, want > 0", live)
	}
	if peak := rt.PeakBufferedBytes(); peak < live {
		t.Fatalf("PeakBufferedBytes = %d < live %d", peak, live)
	}
	tr.Finish()
	if got := rt.BufferedBytes(); got != live {
		t.Errorf("BufferedBytes = %d after trial 1 finished behind the head, want %d", got, live)
	}
	head.Finish()
	if got := rt.BufferedBytes(); got != 0 {
		t.Errorf("BufferedBytes = %d after the head finished, want 0 (buffers replayed)", got)
	}
	if peak := rt.PeakBufferedBytes(); peak != live {
		t.Errorf("PeakBufferedBytes = %d after the replay, want the high-water %d", peak, live)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
