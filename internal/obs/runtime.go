package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"expresspass/internal/sim"
)

// Config configures a Runtime. Zero-value fields disable the
// corresponding subsystem.
type Config struct {
	// Tracer, when non-nil, is handed to every network the run builds;
	// its sink receives the event stream.
	Tracer *Tracer

	// MetricsOut, when non-nil, receives the metrics time series as
	// long-format CSV: t_us,scope,metric,value. Long format is used
	// (rather than one column per metric) because the metric set is
	// dynamic — ports and flows register as topologies are built, and
	// one xpsim run may create several networks.
	MetricsOut io.Writer

	// Interval is the metrics sampling period (default 1 ms of
	// simulated time).
	Interval sim.Duration

	// Progress, when non-nil, receives per-trial heartbeat lines
	// ("[phase] 12/40 trials, 3.1M events, 1.2M ev/s") rate-limited to
	// about one per second of wall clock. The CLIs pass stderr so
	// experiment stdout (the golden-pinned result tables) is untouched.
	Progress io.Writer
}

// Runtime is one run's instrumentation state: the trace sink, the
// metrics CSV, engine accounting and progress heartbeats. A run carries
// it as a value (experiments.Params.Obs); the runner hands each sweep
// trial a Trial scope of it, and a network built on an engine wired to
// one (netem.Wiring) wires itself up at construction. The runtime itself
// is no scope: every network records through a trial, and the engine
// totals are those of finished trials. A network outside any run carries
// nil hooks and the simulation runs at full speed.
type Runtime struct {
	cfg Config

	mu     sync.Mutex
	mw     *lineWriter // metrics CSV; nil when metrics are off
	header bool

	// Totals of every finished trial (Trial.Finish), folded in once per
	// trial under mu: counts add, peaks are a max.
	events uint64
	peak   int
	sched  SchedTotals

	// Sweep progress: phase label plus trial counters, driven by the
	// runner. All atomic so heartbeats never contend with workers.
	phase      atomic.Pointer[string]
	sweepTotal atomic.Int64
	sweepDone  atomic.Int64
	started    time.Time
	lastBeat   atomic.Int64 // unix nanos of the last heartbeat line

	// Worker-buffer gauge: bytes of trace events and metrics rows
	// currently held by trials that began behind the head, plus the
	// high-water mark. Heartbeats report the live value so a sweep
	// whose trials buffer faster than the merge drains them is visible
	// before it becomes an RSS problem.
	bufBytes atomic.Int64
	bufPeak  atomic.Int64

	// The sweep's head — its lowest trial not yet replayed — and the
	// finished trials waiting behind it, keyed by index (Trial.Finish).
	headMu   sync.Mutex
	head     int
	finished map[int]*Trial
}

// NewRuntime returns a runtime for cfg.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Interval <= 0 {
		cfg.Interval = sim.Millisecond
	}
	rt := &Runtime{cfg: cfg, started: time.Now(), finished: map[int]*Trial{}}
	if cfg.MetricsOut != nil {
		rt.mw = newLineWriter(cfg.MetricsOut)
	}
	return rt
}

// Tracer returns the runtime's tracer (nil when tracing is off).
func (rt *Runtime) Tracer() *Tracer { return rt.cfg.Tracer }

// MetricsEnabled reports whether a metrics CSV is being written.
func (rt *Runtime) MetricsEnabled() bool { return rt.mw != nil }

// Interval returns the metrics sampling period.
func (rt *Runtime) Interval() sim.Duration { return rt.cfg.Interval }

// EngineTotals sums executed events and takes the maximum event-heap
// depth across the engines of every finished trial.
func (rt *Runtime) EngineTotals() (events uint64, peakHeap int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.events, rt.peak
}

// SchedTotals is what the event scheduler did across the engines
// EngineTotals covers: the pops it served from the calendar's heap, the
// events a capped bucket walk sent there, the heap's high-water mark and
// the wheel rebuilds (sim.Engine.HeapPops, WalkSpills, PeakHeap,
// Rebuilds), and the keys reserved for transmitter-done events against
// how many of them were ever queued (sim.Engine.Reserved) —
// Reserved-Armed events never existed, so EngineTotals' event count does
// not include them.
type SchedTotals struct {
	HeapPops   uint64
	WalkSpills uint64
	PeakHeap   int
	Rebuilds   int
	Reserved   uint64
	Armed      uint64
}

// add folds one engine's counters in (counts add; the peak is a max).
func (t *SchedTotals) add(e *sim.Engine) {
	t.HeapPops += e.HeapPops()
	t.WalkSpills += e.WalkSpills()
	t.PeakHeap = max(t.PeakHeap, e.PeakHeap())
	t.Rebuilds += e.Rebuilds()
	r, a := e.Reserved()
	t.Reserved += r
	t.Armed += a
}

// SchedTotals sums the scheduler counters over the engines of every
// finished trial.
func (rt *Runtime) SchedTotals() SchedTotals {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sched
}

// addTrial folds one finished trial's engines into the totals.
func (rt *Runtime) addTrial(engines []*sim.Engine) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, e := range engines {
		rt.events += e.Executed()
		rt.peak = max(rt.peak, e.MaxPending())
		rt.sched.add(e)
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// addBufBytes adjusts the live worker-buffer gauge by n (negative at
// flush) and maintains the high-water mark.
func (rt *Runtime) addBufBytes(n int64) {
	atomicMax(&rt.bufPeak, rt.bufBytes.Add(n))
}

// BufferedBytes returns the bytes currently held in the trace/metrics
// buffers of trials not yet replayed, across all workers.
func (rt *Runtime) BufferedBytes() int64 { return rt.bufBytes.Load() }

// PeakBufferedBytes returns the high-water mark of BufferedBytes.
func (rt *Runtime) PeakBufferedBytes() int64 { return rt.bufPeak.Load() }

// SetPhase labels the current run phase (the experiment name) for
// heartbeat lines. The CLIs call it before each experiment.
func (rt *Runtime) SetPhase(name string) {
	rt.phase.Store(&name)
}

// StartSweep announces a sweep of the given expected trial count for
// heartbeat reporting and makes its trial 0 the head. The runner calls
// it at the top of every Map.
func (rt *Runtime) StartSweep(trials int) {
	rt.sweepTotal.Store(int64(trials))
	rt.sweepDone.Store(0)
	rt.headMu.Lock()
	rt.head = 0
	clear(rt.finished)
	rt.headMu.Unlock()
}

// trialDone records one finished trial for heartbeat reporting.
func (rt *Runtime) trialDone() {
	rt.sweepDone.Add(1)
	rt.heartbeat(false)
}

// heartbeat emits one progress line if a Progress writer is configured
// and at least a second of wall clock has passed since the previous
// line (force skips the rate limit). The CAS on lastBeat makes the
// rate limit race-free across worker goroutines; losing the race just
// skips a redundant line.
func (rt *Runtime) heartbeat(force bool) {
	if rt.cfg.Progress == nil {
		return
	}
	now := time.Now().UnixNano()
	last := rt.lastBeat.Load()
	if !force && now-last < int64(time.Second) {
		return
	}
	if !rt.lastBeat.CompareAndSwap(last, now) {
		return
	}
	phase := ""
	if p := rt.phase.Load(); p != nil {
		phase = *p
	}
	events, _ := rt.EngineTotals()
	elapsed := time.Duration(now - rt.started.UnixNano()).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(events) / elapsed
	}
	buffered := ""
	if b := rt.bufBytes.Load(); b > 0 {
		buffered = ", " + humanCount(float64(b)) + "B buffered"
	}
	fmt.Fprintf(rt.cfg.Progress, "[%s] %d/%d trials, %s events, %s ev/s%s\n",
		phase, rt.sweepDone.Load(), rt.sweepTotal.Load(),
		humanCount(float64(events)), humanCount(rate), buffered)
}

// humanCount renders a count with an SI suffix (1.2k, 3.4M, 5.6G).
func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return strconv.FormatFloat(v/1e9, 'f', 1, 64) + "G"
	case v >= 1e6:
		return strconv.FormatFloat(v/1e6, 'f', 1, 64) + "M"
	case v >= 1e3:
		return strconv.FormatFloat(v/1e3, 'f', 1, 64) + "k"
	default:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
}

// Elapsed returns the wall-clock time since the runtime was created.
func (rt *Runtime) Elapsed() time.Duration { return time.Since(rt.started) }

// Resources snapshots the process resource footprint together with the
// runtime's aggregate event rate — the end-of-run telemetry line.
func (rt *Runtime) Resources() (Resources, float64) {
	res := ReadResources()
	events, _ := rt.EngineTotals()
	rate := 0.0
	if s := rt.Elapsed().Seconds(); s > 0 {
		rate = float64(events) / s
	}
	return res, rate
}

// WriteRow appends one metrics sample to the CSV. No-op when metrics
// are disabled.
func (rt *Runtime) WriteRow(t sim.Time, scope, metric string, v float64) {
	if rt.mw == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	lw := rt.mw
	if lw.failed() {
		return
	}
	b := lw.line(len(scope) + len(metric))
	if !rt.header {
		rt.header = true
		b = append(b, "t_us,scope,metric,value\n"...)
	}
	b = lw.micros(b, t)
	b = append(b, ',')
	b = append(b, scope...)
	b = append(b, ',')
	b = append(b, metric...)
	b = append(b, ',')
	b = appendValue(b, v)
	b = append(b, '\n')
	lw.commit(b)
}

// Close flushes the metrics CSV and closes the tracer's sink. Call it
// once the simulations are done (the CLIs defer it).
func (rt *Runtime) Close() error {
	var err error
	rt.mu.Lock()
	if rt.mw != nil {
		err = rt.mw.Close()
	}
	rt.mu.Unlock()
	if rt.cfg.Tracer != nil {
		if terr := rt.cfg.Tracer.Close(); err == nil {
			err = terr
		}
	}
	return err
}
