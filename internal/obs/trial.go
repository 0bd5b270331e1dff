package obs

// Per-trial instrumentation scopes for the sweep runner
// (internal/runner). Every network a run builds records into the Trial
// of the sweep trial that built it. The Runtime's tracer sink and
// metrics writer are single-writer by contract, so only the head — the
// lowest trial of the sweep not yet replayed — writes to them. A trial
// that begins as the head streams; any other buffers its trace events
// and metrics rows. Finish replays every finished trial from the head
// onward and advances the head, so the merge order depends only on
// trial indices, never on goroutine scheduling: trace and metrics files
// are byte-identical between serial and parallel runs, and a serial
// sweep, whose every trial begins as the head, buffers nothing.

import (
	"strconv"
	"unsafe"

	"expresspass/internal/sim"
)

// Trial is the instrumentation scope of one sweep trial: its metrics
// scope labels, its engines and, unless it streams, its buffered output.
// One worker goroutine owns it from BeginTrial to Finish.
type Trial struct {
	rt       *Runtime
	idx      int
	stream   bool
	tracer   *Tracer
	events   *sliceSink
	rows     []trialRow
	engines  []*sim.Engine
	scopes   int
	buffered int64 // bytes accounted to the runtime's worker-buffer gauge
}

type trialRow struct {
	t      sim.Time
	scope  string
	metric string
	v      float64
}

// sliceSink buffers events in emission order for replay,
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
// worker-buffer gauge; the replay refunds the total.
func (tr *Trial) addBuf(n int64) {
	tr.buffered += n
	tr.rt.addBufBytes(n)
}

// BeginTrial returns the scope of the trial with submission index idx;
// the index prefixes the trial's metrics scope labels ("t3.0", "t3.1",
// …) so rows from different trials stay distinguishable — and
// deterministically named — after the merge. A trial that begins as the
// head writes trace events and metrics rows straight to the runtime, in
// O(1) memory: the head moves only when it finishes, and replays run only
// from Finish under the same mutex, so nothing else writes until then.
// Any other trial buffers until Finish replays it.
func (rt *Runtime) BeginTrial(idx int) *Trial {
	rt.headMu.Lock()
	stream := idx == rt.head
	rt.headMu.Unlock()
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

// WriteRow buffers one metrics sample for replay (streaming trials
// write through immediately).
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

// Finish ends the trial; its worker calls it once, after the body
// returns or panics. It folds the trial's engine totals into the
// runtime's — the engines are quiescent, so the reads are race-free and
// progress heartbeats see events as trials finish — and lets go of them.
// Then, under the runtime's head mutex, it replays every finished trial
// from the head onward, in submission order, and advances the head past
// them: that ordering, not worker scheduling, is the determinism
// guarantee.
func (tr *Trial) Finish() {
	rt := tr.rt
	rt.addTrial(tr.engines)
	tr.engines = nil
	rt.trialDone()
	rt.headMu.Lock()
	defer rt.headMu.Unlock()
	rt.finished[tr.idx] = tr
	for next := rt.finished[rt.head]; next != nil; next = rt.finished[rt.head] {
		delete(rt.finished, rt.head)
		next.replay()
		rt.head++
	}
}

// replay writes the trial's buffered trace events and metrics rows into
// the shared runtime and refunds the buffer gauge.
func (tr *Trial) replay() {
	if tr.events != nil {
		g := tr.rt.cfg.Tracer
		for _, ev := range tr.events.events {
			g.Emit(ev)
		}
	}
	for _, r := range tr.rows {
		tr.rt.WriteRow(r.t, r.scope, r.metric, r.v)
	}
	tr.rt.addBufBytes(-tr.buffered)
	tr.events, tr.rows, tr.buffered = nil, nil, 0
}
