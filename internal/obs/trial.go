package obs

// Per-trial instrumentation scopes for the sweep runner
// (internal/runner). Every network a run builds records into the Trial
// of the sweep trial that built it; the Runtime's tracer sink and
// metrics writer are single-writer by contract, so a trial either
// streams into them — when trials run in submission order on one
// goroutine — or buffers its trace events and metrics rows, which the
// runner replays into the shared runtime in submission order once the
// trial's result is being emitted. The merge order therefore depends
// only on trial indices, never on goroutine scheduling, which is what
// keeps trace and metrics files byte-identical between serial and
// parallel runs.

import (
	"strconv"
	"unsafe"

	"expresspass/internal/sim"
)

// Trial is the instrumentation scope of one sweep trial: its metrics
// scope labels, its engines and, unless it streams, its buffered output.
// A buffering trial is owned by a single worker goroutine until Flush,
// which the runner calls from the sweep's coordinating goroutine in
// submission order.
type Trial struct {
	rt        *Runtime
	idx       int
	stream    bool
	tracer    *Tracer
	events    *sliceSink
	rows      []trialRow
	engines   []*sim.Engine
	scopes    int
	buffered  int64 // bytes accounted to the runtime's worker-buffer gauge
	completed bool
	done      bool
}

type trialRow struct {
	t      sim.Time
	scope  string
	metric string
	v      float64
}

// sliceSink buffers events in emission order for replay at Flush,
// charging each event to the owning trial's buffer gauge.
type sliceSink struct {
	tr     *Trial
	events []Event
}

func (s *sliceSink) Record(ev Event) {
	s.events = append(s.events, ev)
	s.tr.addBuf(int64(unsafe.Sizeof(ev)) + int64(len(ev.Scope)))
}
func (s *sliceSink) Close() error { return nil }

// addBuf charges n bytes of buffered instrumentation to the runtime's
// worker-buffer gauge; Flush refunds the total.
func (tr *Trial) addBuf(n int64) {
	tr.buffered += n
	tr.rt.addBufBytes(n)
}

// BeginTrial returns the scope of the trial with submission index idx;
// the index prefixes the trial's metrics scope labels ("t3.0", "t3.1",
// …) so rows from different trials stay distinguishable — and
// deterministically named — after the merge. A streaming trial writes
// trace events and metrics rows straight to the runtime: only valid when
// trials execute in submission order on one goroutine (the runner's
// serial path), which holds the single-writer contract on the sink and
// the metrics CSV by construction, in O(1) memory instead of an
// events-per-trial buffer. Any other trial buffers until Flush.
func (rt *Runtime) BeginTrial(idx int, stream bool) *Trial {
	tr := &Trial{rt: rt, idx: idx, stream: stream, tracer: rt.cfg.Tracer}
	if g := rt.cfg.Tracer; g != nil && !stream {
		tr.events = &sliceSink{tr: tr}
		// Same type filter as the global tracer so the buffer only
		// holds events that will survive the replay.
		tr.tracer = &Tracer{sink: tr.events, mask: g.mask}
	}
	return tr
}

// Tracer returns the trial's tracer (nil when the runtime has no
// tracer).
func (tr *Trial) Tracer() *Tracer { return tr.tracer }

// MetricsEnabled reports whether the runtime is writing a metrics CSV.
func (tr *Trial) MetricsEnabled() bool { return tr.rt.MetricsEnabled() }

// Interval returns the runtime's metrics sampling period.
func (tr *Trial) Interval() sim.Duration { return tr.rt.Interval() }

// NextScope allocates a metrics scope label local to the trial.
func (tr *Trial) NextScope() string {
	s := "t" + strconv.Itoa(tr.idx) + "." + strconv.Itoa(tr.scopes)
	tr.scopes++
	return s
}

// AttachEngine registers e with the trial for its engine totals. The
// runner attaches every engine a trial creates, once, so engines that
// carry no network are counted too.
func (tr *Trial) AttachEngine(e *sim.Engine) {
	tr.engines = append(tr.engines, e)
}

// WriteRow buffers one metrics sample for replay at Flush (streaming
// trials write through immediately).
func (tr *Trial) WriteRow(t sim.Time, scope, metric string, v float64) {
	if tr.stream {
		tr.rt.WriteRow(t, scope, metric, v)
		return
	}
	if !tr.rt.MetricsEnabled() {
		return
	}
	r := trialRow{t, scope, metric, v}
	tr.rows = append(tr.rows, r)
	tr.addBuf(int64(unsafe.Sizeof(r)) + int64(len(scope)+len(metric)))
}

// Complete folds the trial's engine totals into the runtime's, lets go
// of the engines, and bumps the sweep progress counters. The owning
// worker calls it right after the trial body returns — the engines are
// quiescent at that point, so the reads are race-free, and progress
// heartbeats see events as trials finish rather than only at the
// submission-order flush. Idempotent; Flush calls it as a fallback for
// callers that skip it.
func (tr *Trial) Complete() {
	if tr.completed {
		return
	}
	tr.completed = true
	tr.rt.addTrial(tr.engines)
	tr.engines = nil
	tr.rt.TrialDone()
}

// Flush replays the trial's buffered trace events and metrics rows into
// the shared runtime. The runner calls Flush once per trial, in
// submission order, from a single goroutine — that ordering is the
// determinism guarantee.
func (tr *Trial) Flush() {
	if tr.done {
		return
	}
	tr.done = true
	tr.Complete()
	if tr.events != nil {
		g := tr.rt.cfg.Tracer
		for _, ev := range tr.events.events {
			g.Emit(ev)
		}
		tr.events = nil
	}
	for _, r := range tr.rows {
		tr.rt.WriteRow(r.t, r.scope, r.metric, r.v)
	}
	tr.rows = nil
	if tr.buffered > 0 {
		tr.rt.addBufBytes(-tr.buffered)
		tr.buffered = 0
	}
}
