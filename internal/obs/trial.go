package obs

// Per-trial instrumentation scopes for the sweep runner
// (internal/runner). Every network a run builds records into the Trial
// of the sweep trial that built it. The Runtime's tracer sink and
// metrics writer are single-writer by contract, and a traced or metered
// run runs its trials one at a time, in index order (runner.Run), so a
// trial writes its trace events and metrics rows straight to the
// runtime: the files hold the trials in index order at any -procs.

import (
	"strconv"

	"expresspass/internal/sim"
)

// Trial is the instrumentation scope of one sweep trial: its metrics
// scope labels and its engines. One worker goroutine owns it from
// BeginTrial to Finish.
type Trial struct {
	rt      *Runtime
	idx     int
	scopes  int
	engines []*sim.Engine
}

// BeginTrial returns the scope of the trial with submission index idx;
// the index prefixes the trial's metrics scope labels ("t3.0", "t3.1",
// …) so rows from different trials stay distinguishable and
// deterministically named.
func (rt *Runtime) BeginTrial(idx int) *Trial {
	return &Trial{rt: rt, idx: idx}
}

// Tracer returns the runtime's tracer (nil when the runtime has no
// tracer).
func (tr *Trial) Tracer() *Tracer { return tr.rt.cfg.Tracer }

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

// WriteRow writes one metrics sample to the runtime's CSV.
func (tr *Trial) WriteRow(t sim.Time, scope, metric string, v float64) {
	tr.rt.WriteRow(t, scope, metric, v)
}

// Finish ends the trial; its worker calls it once, after the body
// returns or panics. It folds the trial's engine totals into the
// runtime's — the engines are quiescent, so the reads are race-free and
// progress heartbeats see events as trials finish — lets go of them and
// counts the trial done.
func (tr *Trial) Finish() {
	tr.rt.addTrial(tr.engines)
	tr.engines = nil
	tr.rt.trialDone()
}
