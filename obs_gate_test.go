package expresspass_test

// TestObsBudgetGate is the observability resource-regression gate run
// by `make bench-gate` (set XPSIM_OBS_GATE=1; skipped otherwise — it
// runs the full fig18 incast sweep with tracing enabled). It pins two
// budgets that keep instrumented runs memory-bounded:
//
//   - trace bytes per event: the JSONL encoding of the fig18 event
//     stream must average at most XPSIM_OBS_BYTES_BUDGET bytes/event
//     (default 160). A regression here means the flat nine-key schema
//     grew or the hand-rolled encoder got wasteful.
//   - peak RSS: the whole traced run must stay under
//     XPSIM_OBS_RSS_BUDGET_MB (256 when unset; `make bench-gate` sets
//     20, twice the 10–11 MB read at PR 23 — PR 6 read ~22 MB, see
//     EXPERIMENTS.md "What streaming trials bought"). The sweep runs
//     serial (Procs: 1) so the gate measures the streaming path
//     — the trace goes straight through a 64 KiB buffer into the
//     counting writer with no per-trial replay buffers, and each cell's
//     FCT samples are reduced to table cells inside its trial, so the
//     footprint must not scale with trace length. (Parallel sweeps additionally buffer each
//     in-flight trial's events for the submission-order merge; that
//     cost is proportional to per-trial event volume times worker
//     count and is deliberately outside this budget.)
//
// XPSIM_OBS_SCALE (default 0.02) sets the fig18 scale; the default
// keeps the gate to a few minutes. Budgets are calibrated to it.

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"expresspass"
	"expresspass/internal/obs"
)

// countingWriter discards trace bytes while counting them, so the gate
// measures encoder output without disk I/O or retained buffers.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func TestObsBudgetGate(t *testing.T) {
	if os.Getenv("XPSIM_OBS_GATE") == "" {
		t.Skip("set XPSIM_OBS_GATE=1 to run the observability budget gate")
	}
	bytesBudget := envInt(t, "XPSIM_OBS_BYTES_BUDGET", 160)
	rssBudgetMB := envInt(t, "XPSIM_OBS_RSS_BUDGET_MB", 256)
	scale := 0.02
	if s := os.Getenv("XPSIM_OBS_SCALE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("XPSIM_OBS_SCALE: %v", err)
		}
		scale = v
	}
	var cw countingWriter
	tracer := expresspass.NewTracer(expresspass.NewJSONLTraceSink(&cw))
	rt := expresspass.NewObsRuntime(expresspass.ObsConfig{Tracer: tracer})

	var out bytes.Buffer
	if err := expresspass.RunExperiment("fig18",
		expresspass.ExperimentParams{Scale: scale, Seed: 42, Procs: 1, Obs: rt}, &out); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	events := tracer.Count()
	if events == 0 {
		t.Fatal("traced no events")
	}
	perEvent := float64(cw.n) / float64(events)
	res := obs.ReadResources()
	rssMB := float64(res.PeakRSSBytes) / (1 << 20)
	t.Logf("fig18@%g traced: %d events, %d bytes (%.1f bytes/event), peak RSS %.0f MB",
		scale, events, cw.n, perEvent, rssMB)

	if perEvent > float64(bytesBudget) {
		t.Errorf("obs-bytes-per-event %.1f exceeds budget %d", perEvent, bytesBudget)
	}
	if res.PeakRSSBytes == 0 {
		t.Log("VmHWM unavailable; skipping RSS budget check")
	} else if rssMB > float64(rssBudgetMB) {
		t.Errorf("peak RSS %.0f MB exceeds budget %d MB", rssMB, rssBudgetMB)
	}
}

func envInt(t *testing.T, name string, def int) int {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}
