package obs

// Per-trial instrumentation scopes for the parallel sweep runner
// (internal/runner). The Runtime's tracer sink and metrics writer are
// single-writer by contract, so concurrent trials must not touch them
// directly. Instead each trial records into a private Trial scope —
// buffered trace events, buffered metrics rows, and its own engine
// list — and the runner replays the buffers into the shared runtime in
// submission order once the trial's result is being emitted. The merge
// order therefore depends only on trial indices, never on goroutine
// scheduling, which is what keeps trace and metrics files byte-identical
// between serial and parallel runs.

import (
	"strconv"
	"unsafe"

	"expresspass/internal/sim"
)

// Scope is the instrumentation surface a network binds to at
// construction time (netem.Wiring): the run's *Runtime itself for an
// engine built outside a sweep, or a per-trial *Trial for one built by
// a runner sweep trial. The methods mirror what netem needs to wire
// tracing, engine accounting, and the metrics sampler.
type Scope interface {
	// Tracer returns the scope's tracer, or nil when tracing is off.
	Tracer() *Tracer
	// MetricsEnabled reports whether metrics rows are being collected.
	MetricsEnabled() bool
	// Interval returns the metrics sampling period.
	Interval() sim.Duration
	// NextScope allocates a distinct metrics scope label.
	NextScope() string
	// AttachEngine registers an engine for aggregate accounting.
	AttachEngine(e *sim.Engine)
	// WriteRow appends one metrics sample.
	WriteRow(t sim.Time, scope, metric string, v float64)
}

var (
	_ Scope = (*Runtime)(nil)
	_ Scope = (*Trial)(nil)
)

// Trial is the Scope for one sweep trial. Parallel sweeps buffer: the
// trial is owned by a single worker goroutine until Flush, which the
// runner calls from the sweep's coordinating goroutine in submission
// order. Serial sweeps stream (BeginStreamingTrial): trials already
// run in submission order on one goroutine, so events and rows write
// straight through to the shared runtime — O(1) memory instead of an
// events-per-trial buffer — while keeping the same per-trial scope
// labels, so serial and parallel output stay byte-identical.
type Trial struct {
	rt        *Runtime
	idx       int
	direct    bool
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

// BeginTrial returns a fresh per-trial scope. idx is the trial's
// submission index; it prefixes the trial's metrics scope labels
// ("t3.0", "t3.1", …) so rows from different trials stay
// distinguishable — and deterministically named — after the merge.
func (rt *Runtime) BeginTrial(idx int) *Trial {
	tr := &Trial{rt: rt, idx: idx}
	if g := rt.cfg.Tracer; g != nil {
		tr.events = &sliceSink{tr: tr}
		// Same type filter as the global tracer so the buffer only
		// holds events that will survive the replay.
		tr.tracer = &Tracer{sink: tr.events, mask: g.mask}
	}
	return tr
}

// BeginStreamingTrial returns a trial scope that writes trace events
// and metrics rows directly to the shared runtime instead of
// buffering them. Only valid when trials execute in submission order
// on one goroutine (the runner's serial path) — the single-writer
// contract on the sink and metrics CSV is then held by construction.
func (rt *Runtime) BeginStreamingTrial(idx int) *Trial {
	return &Trial{rt: rt, idx: idx, direct: true, tracer: rt.cfg.Tracer}
}

// Tracer returns the trial's buffering tracer (nil when the runtime
// has no tracer).
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

// AttachEngine registers e with the trial for its engine totals
// (idempotent). The runner attaches every engine a trial creates, so
// engines that carry no network are counted too.
func (tr *Trial) AttachEngine(e *sim.Engine) {
	for _, have := range tr.engines {
		if have == e {
			return
		}
	}
	tr.engines = append(tr.engines, e)
}

// WriteRow buffers one metrics sample for replay at Flush (streaming
// trials write through immediately).
func (tr *Trial) WriteRow(t sim.Time, scope, metric string, v float64) {
	if tr.direct {
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

// Complete folds the trial's engine totals into the runtime's atomic
// accumulators, lets go of the engines, and bumps the sweep progress
// counters. The owning worker calls it right after the trial body
// returns — the engines are quiescent at that point, so the reads are
// race-free, and progress heartbeats see events as trials finish
// rather than only at the submission-order flush. Idempotent; Flush
// calls it as a fallback for callers that skip it.
func (tr *Trial) Complete() {
	if tr.completed {
		return
	}
	tr.completed = true
	for _, e := range tr.engines {
		tr.rt.addTrialTotals(e)
	}
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
