// Package lifecycle manages the flow population of sweep-shaped FCT
// experiments: flows are dialed lazily at their arrival times instead
// of being pre-dialed at t=0, and completed flows are retired — torn
// down, stripped of their observability registrations, folded by the
// caller's OnRetire, and released to the garbage collector — while the
// run is still in flight. Per-flow state is then
// O(concurrently-active flows) rather than O(total flows), which is
// what makes scale=1.0 (the paper's 100k-flow runs) fit in bounded RSS
// on one machine.
//
// Determinism. Both manager activities run as dom-0 (global) events on
// the trial's engine:
//
//   - Arrival dialing is a chain: each dial event dials exactly one
//     flow and schedules the next at its (sorted, non-decreasing) start
//     time.
//   - Retirement is a periodic reaper that scans only live flows and
//     retires those that are Quiesced: the transport wound down on its
//     own and holds no pending timers, so tearing it down cancels
//     nothing that would have fired and cannot change the simulation's
//     future. OnRetire folds each flow here, once at its teardown, in
//     the reaper's scan order; after the run the caller folds the
//     stragglers with the same function through ForEachLive.
//
// The one manager action that does run in OnFinish is a finished
// counter, so drivers can stop on a counter instead of rescanning every
// flow.
package lifecycle

import (
	"sort"

	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/transport"
	"expresspass/internal/workload"
)

// Handle is the manager's view of one flow's transport: core.Session
// and transport.Conn (via any wrapper that forwards to them) both
// satisfy it.
type Handle interface {
	// Quiesced reports that the transport has wound down on its own and
	// holds no pending timers, so Retire cannot alter future events.
	Quiesced() bool
	// Retire tears the transport down and releases any observability
	// registrations (per-flow gauges, endpoint demux entries).
	Retire()
}

// Config parameterizes a Manager.
type Config struct {
	// Engine is the trial's engine (required). Dial and reap
	// events are scheduled on it in domain 0.
	Engine *sim.Engine

	// Specs are the flows to run (required non-nil Dial below; an empty
	// slice is a no-op run). NewManager stable-sorts them by Start, so
	// generators with jittered starts (e.g. workload.Shuffle) need no
	// pre-sorting; the sort is stable so equal-start flows dial in spec
	// order.
	Specs []workload.FlowSpec

	// Dial creates the transport for one spec at its arrival time
	// (required). idx is the index into the sorted Specs.
	Dial func(spec workload.FlowSpec, idx int) (*transport.Flow, Handle)

	// Class, if set, buckets each retired flow's FCT in seconds into the
	// per-class accumulators FCTs returns. The experiments fold through
	// OnRetire instead and leave it nil; the benchmark harness's churn
	// cell reads FCTs.
	Class func(f *transport.Flow) string

	// OnRetire, if set, runs in the reaper for every retired flow just
	// before its references drop — the hook experiments fold FCTs and
	// transport counters (credits received/wasted) through. It runs in
	// the reaper's deterministic scan order. Pass the same function to
	// ForEachLive after the run to fold the flows never retired.
	OnRetire func(f *transport.Flow, h Handle)

	// Grace is how long past Flow.FinishTime a quiesced flow is kept
	// registered (default 500µs). It covers packets still in flight at
	// quiescence — stray credits that must reach a registered sender
	// for Fig 20's waste accounting to match a run that never retires,
	// duplicate ACKs that would otherwise count as unclaimed arrivals.
	// A few BaseRTTs is plenty: credit queues are 8 packets deep, so
	// one-way residue drains within an RTT of the credit flow stopping.
	Grace sim.Duration
}

// reapInterval is the reaper period. Retirement latency — how long a
// completed flow's state survives — is about Grace + reapInterval.
const reapInterval = sim.Millisecond

type liveFlow struct {
	f *transport.Flow
	h Handle
}

// Manager runs the arrival/retirement lifecycle for one set of specs.
// All methods must be called from the engine's goroutine (or between
// runs).
type Manager struct {
	cfg   Config
	specs []workload.FlowSpec

	next     int        // next spec to dial
	live     []liveFlow // dialed, not yet retired, in dial order
	finished int        // OnFinish hook; includes not-yet-retired flows

	fcts      map[string]*stats.Dist
	reapArmed bool
	started   bool
}

// NewManager validates cfg, stable-sorts the specs by start time, and
// returns an idle manager. Call Start before running the engine.
func NewManager(cfg Config) *Manager {
	if cfg.Engine == nil {
		panic("lifecycle: Config.Engine is nil")
	}
	if cfg.Dial == nil {
		panic("lifecycle: Config.Dial is nil")
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 500 * sim.Microsecond
	}
	specs := cfg.Specs
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Start < specs[j].Start })
	return &Manager{cfg: cfg, specs: specs, fcts: map[string]*stats.Dist{}}
}

// Start schedules the first arrival. Call once, before the engine runs.
func (m *Manager) Start() {
	if m.started {
		panic("lifecycle: Start called twice")
	}
	m.started = true
	if len(m.specs) == 0 {
		return
	}
	at := m.specs[0].Start
	if now := m.cfg.Engine.Now(); at < now {
		at = now
	}
	m.cfg.Engine.At2D(0, at, managerDial, m, nil, 0)
}

// Typed event handlers (sim.Handler2) so a million-flow run schedules
// its million dial events through the engine free list, not the heap
// allocator.
func managerDial(obj, _ any, _ uint64) { obj.(*Manager).dialNext() }
func managerReap(obj, _ any, _ uint64) { obj.(*Manager).reap() }

// dialNext dials exactly one flow, then chains the next arrival. One
// event per arrival keeps the pending-event footprint O(1) instead of
// preloading the heap with every future dial.
func (m *Manager) dialNext() {
	sp := m.specs[m.next]
	idx := m.next
	m.next++
	f, h := m.cfg.Dial(sp, idx)
	if f == nil || h == nil {
		panic("lifecycle: Dial returned a nil flow or handle")
	}
	prev := f.OnFinish
	f.OnFinish = func(fl *transport.Flow) {
		if prev != nil {
			prev(fl)
		}
		m.finished++
	}
	m.live = append(m.live, liveFlow{f: f, h: h})
	if !m.reapArmed {
		m.reapArmed = true
		m.cfg.Engine.At2D(0, m.cfg.Engine.Now()+reapInterval, managerReap, m, nil, 0)
	}
	if m.next < len(m.specs) {
		at := m.specs[m.next].Start
		if now := m.cfg.Engine.Now(); at < now {
			at = now
		}
		m.cfg.Engine.At2D(0, at, managerDial, m, nil, 0)
	}
}

// reap retires every live flow that finished at least Grace ago and
// whose transport is quiesced, then re-arms while any flow is live or
// undialed — so when the last flow retires, the reaper stops and a
// run-to-drain driver terminates without polling.
func (m *Manager) reap() {
	now := m.cfg.Engine.Now()
	kept := m.live[:0]
	for _, lf := range m.live {
		if lf.f.Finished && now >= lf.f.FinishTime+m.cfg.Grace && lf.h.Quiesced() {
			m.retire(lf)
			continue
		}
		kept = append(kept, lf)
	}
	for i := len(kept); i < len(m.live); i++ {
		m.live[i] = liveFlow{} // drop references: retired flows are GC-eligible
	}
	m.live = kept
	if m.next < len(m.specs) || len(m.live) > 0 {
		m.cfg.Engine.At2D(0, now+reapInterval, managerReap, m, nil, 0)
	} else {
		m.reapArmed = false
	}
}

func (m *Manager) retire(lf liveFlow) {
	if m.cfg.Class != nil {
		cls := m.cfg.Class(lf.f)
		d := m.fcts[cls]
		if d == nil {
			d = stats.NewDist()
			m.fcts[cls] = d
		}
		d.Observe(lf.f.FCT().Seconds())
	}
	if m.cfg.OnRetire != nil {
		m.cfg.OnRetire(lf.f, lf.h)
	}
	lf.h.Retire()
	// The transport is fully torn down (endpoints unregistered, gauges
	// released), so the flow's ID can be recycled. Recycling is what
	// bounds the dense per-host endpoint demux tables — indexed by flow
	// ID — to the concurrent population instead of the run's total.
	// Only here: this path runs exactly once per flow, in deterministic
	// reaper scan order. Stragglers a driver tears down itself after
	// the run never reach it, which is harmless — their IDs just stay
	// allocated.
	lf.f.Sender.Network().FreeFlowID(lf.f.ID)
}

// Live returns how many dialed flows have not yet been retired.
func (m *Manager) Live() int { return len(m.live) }

// Finished returns how many flows have delivered every byte, including
// flows not yet retired. Maintained by an OnFinish counter, so reading
// it is O(1) — drivers stop on this instead of rescanning every flow.
func (m *Manager) Finished() int { return m.finished }

// FCTs returns the per-class FCT accumulators of retired flows when
// Config.Class is set (empty otherwise). Flows never retired are not in
// them.
func (m *Manager) FCTs() map[string]*stats.Dist { return m.fcts }

// ForEachLive visits every not-yet-retired flow in dial order, letting
// a driver fold, with its OnRetire, the stragglers the reaper had not
// retired when the run ended: flows that never finished, and flows that
// finished inside the final grace/reap window.
func (m *Manager) ForEachLive(fn func(f *transport.Flow, h Handle)) {
	for _, lf := range m.live {
		fn(lf.f, lf.h)
	}
}
