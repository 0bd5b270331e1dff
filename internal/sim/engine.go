package sim

import (
	"fmt"
	"math"
)

// Handler is a callback executed when an event fires.
type Handler func()

// Handler2 is the typed-event callback: a package-level function chosen
// at the call site, invoked with the (obj, aux, arg) triple that was
// stored inline in the event struct by At2/After2D. Because the function
// value is static and both any slots hold pointers, scheduling a typed
// event performs no heap allocation — the closure API (At) is built on
// it, allocates one closure per schedule and is kept for cold-path
// setup and tests.
type Handler2 func(obj, aux any, arg uint64)

// runClosure is the Handler2 every closure-API event is queued with: the
// Handler rides in obj (a func value is pointer-shaped, so boxing it
// does not allocate).
func runClosure(obj, _ any, _ uint64) { obj.(Handler)() }

// event is a scheduled callback. Events are ordered by (at, dom, seq):
// dom is a scheduling domain — a small integer naming the component that
// deterministically produces the event stream (a host, one direction of
// a link, …; 0 is the global domain) — and seq breaks remaining
// ties so execution order is FIFO among equal-key events, regardless of
// which API scheduled them.
//
// The typed triple lives inline so steady-state packet events never
// touch the allocator: obj is the receiver (a *Port, *sender, …), aux an
// optional second pointer (usually a *packet.Packet), arg an opaque
// word for small scalars.
//
// eng is the engine whose queue holds the event; EventID.Cancel and
// Reschedule go through it to keep live-event accounting and queue
// position correct.
// bucket is the wheel bucket holding the event, or calInHeap when the
// calendar's heap does; next and prev thread it into that bucket's ring
// and are nil outside one. index is the heap slot (0 anywhere else) and
// is -1 once recycle has taken the event out of the queue for good.
type event struct {
	at       Time
	seq      uint64
	h        Handler2
	obj      any
	aux      any
	arg      uint64
	eng      *Engine
	dom      int32
	bucket   int32
	canceled bool
	index    int
	next     *event
	prev     *event
}

// EventID identifies a scheduled event so it can be canceled or
// rescheduled. The seq field guards against the engine's event-struct
// recycling: a stale ID whose event already fired must never affect the
// unrelated event that now occupies the recycled struct.
type EventID struct {
	ev  *event
	seq uint64
}

// Cancel marks the event so it will not run. Canceling an already-fired
// or already-canceled event is a no-op. Returns true if it was pending.
// The struct stays queued until its time bubbles to the front (lazy
// cancellation), but it leaves the live-event count immediately, so
// Pending and Stats' PeakLive never report canceled events.
func (id EventID) Cancel() bool {
	if id.ev == nil || id.ev.seq != id.seq || id.ev.canceled || id.ev.index < 0 {
		return false
	}
	id.ev.canceled = true
	id.ev.eng.live--
	return true
}

// Pending reports whether the event is still scheduled to run.
func (id EventID) Pending() bool {
	return id.ev != nil && id.ev.seq == id.seq && !id.ev.canceled && id.ev.index >= 0
}

// Reschedule moves a still-pending event to absolute time at, in place:
// the event keeps its struct, domain, and sequence number, so among
// same-time events it keeps the tie-break rank its original schedule
// earned. This is the re-arm fast path for recurring timers (pace
// ticks, RTOs, retry watchdogs) that used to cancel-and-repush on every
// update, leaving a trail of dead events to pop later: a reschedule is
// one queue fix-up and leaves nothing behind. Returns false when the
// event already fired or was canceled — callers then fall back to
// scheduling a fresh event. Rescheduling into the past panics, exactly
// like scheduling into the past.
func (id EventID) Reschedule(at Time) bool {
	ev := id.ev
	if ev == nil || ev.seq != id.seq || ev.canceled || ev.index < 0 {
		return false
	}
	e := ev.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v, before now %v", at, e.now))
	}
	e.resched++
	e.cal.remove(ev)
	e.live-- // schedule counts it back in
	ev.at = at
	e.schedule(ev)
	return true
}

// Rearm is the one-line migration target for the classic
// "cancel-then-schedule" timer idiom: if id is still pending it is
// rescheduled in place to at (no dead struct left in the queue, no new
// seq consumed) and returned unchanged; otherwise — the timer already
// fired, was canceled, or was never armed — a fresh typed event is
// scheduled on e and its ID returned.
func Rearm(id EventID, e *Engine, dom int32, at Time, h Handler2, obj, aux any, arg uint64) EventID {
	if id.Reschedule(at) {
		return id
	}
	return e.At2D(dom, at, h, obj, aux, arg)
}

// Key is an event's place in dispatch order: the (time, dom, seq) triple
// the comparator sorts by. Engine.Reserve hands one out without queueing
// anything, for an event that will usually turn out to have nothing to
// do (see Reserve). The zero Key is one every engine has Reached.
type Key struct {
	At  Time
	Seq uint64
	Dom int32
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; construct with New.
//
// The pending-event queue is the calendar queue of calendar.go, ordered
// by (time, dom, seq). Not every key in that order need be a queued
// event: Reserve takes a key — sequence number included — for an event
// that is queued later through Arm or, when it would have had nothing to
// do, never; Reached tells the key's owner whether dispatch order has
// passed it. Executed, Pending and Stats count queued events only.
type Engine struct {
	now     Time
	cal     *calQ
	nextSeq uint64
	rng     *Rand
	nEvents uint64 // executed events, for instrumentation

	// live is the number of queued events that have not been canceled;
	// maxLive is its high-water mark. Pending and Stats report these,
	// so lazily-canceled structs awaiting their pop never inflate the
	// obs gauges.
	live    int
	maxLive int

	resched uint64 // successful EventID.Reschedule calls
	free    []*event

	// The dispatch position (see Reached) is the largest key dispatch
	// order has passed, as (now, posDom, posSeq). Step raises it to each
	// dispatched event's key; Run and RunUntil, which move the clock
	// without a dispatch, set it through settleAt ("after every key at
	// t"). It lags the dispatching event's key only when a handler
	// schedules a same-instant event in a lower domain: that event runs
	// next, but nothing already passed is un-passed by it.
	posDom int32
	posSeq uint64

	// Reserve calls and how many of the reserved keys were later queued
	// through Arm; the difference is events that never existed.
	reserved uint64
	armed    uint64

	// Wiring is what a network built on this engine attaches to (a
	// *netem.Wiring: the run's observation scope and invariant check). It
	// is set by whoever creates the engine for a run; sim never reads it,
	// and an engine without one builds unobserved, unchecked networks.
	// Last, so the fields above keep the offsets the hot path reads.
	Wiring any
}

// New returns an engine at time zero whose RNG is seeded with seed.
func New(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed), cal: newCalQ()}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nEvents }

// Pending returns the number of live (non-canceled) events currently
// queued. Lazily-canceled structs still occupying the queue are not
// counted; see DESIGN.md "Event scheduler" for the accounting change.
func (e *Engine) Pending() int { return e.live }

// Stats is what an engine did: its counters, read in one value.
// Executed, Pending and PeakLive count queued events only; a key that
// Reserve handed out and Arm never queued is in Reserved alone.
type Stats struct {
	// Executed is the events dispatched (Engine.Executed).
	Executed uint64
	// PeakLive is the high-water mark of Pending: the live-event peak,
	// a proxy for model fan-out (obs exports it as engine/peak_heap).
	PeakLive int
	// Rescheduled counts the timer re-arms that took the in-place
	// EventID.Reschedule path instead of a cancel+push pair (sim/resched).
	Rescheduled uint64
	// HeapPops counts the pops the calendar served from its heap root
	// rather than a wheel bucket's head: far timers, and whatever the
	// walk cap spilled.
	HeapPops uint64
	// WalkSpills counts the events sent to the calendar's heap because
	// sorting them into their bucket would have walked past the cap. Only
	// a same-instant burst arriving against key order produces them — in
	// practice, timers the model arms per port or flow for one instant.
	WalkSpills uint64
	// PeakHeap is the high-water mark of the calendar's heap.
	PeakHeap int
	// Rebuilds counts the wheel re-creations for a new geometry.
	Rebuilds int
	// Reserved counts the keys Reserve handed out, Armed how many of them
	// Arm went on to queue; the difference is events a run with eager
	// scheduling would have executed to no effect.
	Reserved uint64
	Armed    uint64
	// FreeList is the event structs parked for reuse (sim/freelist_size).
	FreeList int
}

// Add folds o into s: counts add, the two peaks take the larger.
func (s *Stats) Add(o Stats) {
	s.Executed += o.Executed
	s.PeakLive = max(s.PeakLive, o.PeakLive)
	s.Rescheduled += o.Rescheduled
	s.HeapPops += o.HeapPops
	s.WalkSpills += o.WalkSpills
	s.PeakHeap = max(s.PeakHeap, o.PeakHeap)
	s.Rebuilds += o.Rebuilds
	s.Reserved += o.Reserved
	s.Armed += o.Armed
	s.FreeList += o.FreeList
}

// Stats returns the engine's counters.
func (e *Engine) Stats() Stats {
	c := e.cal
	return Stats{
		Executed:    e.nEvents,
		PeakLive:    e.maxLive,
		Rescheduled: e.resched,
		HeapPops:    c.heapPops,
		WalkSpills:  c.walkSpills,
		PeakHeap:    c.peakHeap,
		Rebuilds:    c.rebuilds,
		Reserved:    e.reserved,
		Armed:       e.armed,
		FreeList:    len(e.free),
	}
}

// less orders events by (time, domain, insertion sequence). The domain
// tie-break makes a same-instant tie between two components a function
// of which components they are, not of which one happened to schedule
// first; every recorded output byte and the transmitter-done tie cases
// of Reserve/Reached are defined by this order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// badSchedule panics for a schedule into the past, which every
// scheduling call refuses: it always indicates a logic bug in a model.
// It is out of line so the callers' common path stays small.
//
//go:noinline
func (e *Engine) badSchedule(at Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", at, e.now))
}

// claim takes an event struct off the free list (or allocates a fresh
// one) and stamps it with its key (at, dom, seq) and its typed callback,
// ready for schedule.
func (e *Engine) claim(at Time, dom int32, seq uint64, h Handler2, obj, aux any, arg uint64) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.dom, ev.seq = at, dom, seq
	ev.h, ev.obj, ev.aux, ev.arg = h, obj, aux, arg
	ev.eng = e
	ev.canceled = false
	ev.index = 0
	return ev
}

// schedule queues a stamped event — a fresh one, or one Reschedule has
// just removed — and counts it live. It is the one placement every
// event goes through: the origin advances to today, an event for an
// empty bucket inside the horizon becomes that bucket's ring in line,
// and only a ring walk or a heap push costs place's call.
func (e *Engine) schedule(ev *event) {
	if ev.at < e.now {
		e.badSchedule(ev.at)
	}
	c := e.cal
	c.advance(e.now)
	if !c.placeEmpty(ev) {
		c.place(ev)
	}
	c.n++
	if c.cached != nil && less(ev, c.cached) {
		c.cached = ev
	}
	if e.live++; e.live > e.maxLive {
		e.maxLive = e.live
	}
}

// Reserve claims the key an event scheduled right now at (at, dom)
// would get — the sequence number is consumed exactly as At2D consumes
// it, so every other event of the run keeps its key — and queues
// nothing. It is for an event whose handler usually finds nothing to do
// (a port's transmitter-done on an empty queue): the owner holds the
// key, asks Reached where it would have tested a flag the handler
// clears, and calls Arm only once the handler would have work. An event
// that is never armed is never queued, popped or counted.
//
// The scheme is exact when the key lies ahead of the dispatch position,
// which a key later than now always does. A key reserved for the current
// instant may come back already Reached; an owner that schedules with
// zero delay must Arm such a key at once.
func (e *Engine) Reserve(dom int32, at Time) Key {
	if at < e.now {
		e.badSchedule(at)
	}
	k := Key{At: at, Seq: e.nextSeq, Dom: dom}
	e.nextSeq++
	e.reserved++
	return k
}

// Arm queues the typed event h(obj, aux, arg) at a key obtained from
// Reserve, at most once per key. Dispatch order is the comparator's, so
// the event runs exactly where one queued at Reserve time would have.
func (e *Engine) Arm(k Key, h Handler2, obj, aux any, arg uint64) {
	e.armed++
	e.schedule(e.claim(k.At, k.Dom, k.Seq, h, obj, aux, arg))
}

// Reached reports whether dispatch order has reached k: an event queued
// at k would have been dispatched by now (or is the one dispatching).
// The engine's position is the largest key it has passed — the keys of
// the events it dispatched and, where Run or RunUntil moved the clock
// without a dispatch, "after every key at t" as settleAt defines it — so
// the answer is the same whether or not the event at k was ever queued.
// Comparing times alone would get every same-picosecond case wrong.
func (e *Engine) Reached(k Key) bool {
	if k.At != e.now {
		return k.At < e.now
	}
	if k.Dom != e.posDom {
		return k.Dom < e.posDom
	}
	return k.Seq <= e.posSeq
}

// settleAt moves the clock forward to t without a dispatch, at a point
// where every event at or before t has run: the dispatch position
// becomes "after every key at t". Events scheduled at t afterwards (by
// set-up code between runs) still run, and do not lower it.
func (e *Engine) settleAt(t Time) {
	if e.now <= t {
		e.now = t
		e.posDom, e.posSeq = math.MaxInt32, math.MaxUint64
	}
}

// At schedules fn to run at absolute time at, in the global domain
// (dom 0). Scheduling in the past panics: it always indicates a logic
// bug in a model. Each call stores a closure; per-packet schedulers
// should use At2 instead, which is allocation-free.
func (e *Engine) At(at Time, fn Handler) EventID { return e.AtD(0, at, fn) }

// AtD schedules fn at absolute time at in scheduling domain dom.
// Component code passes the owning component's domain, so same-instant
// ties resolve by component rather than by global call order.
func (e *Engine) AtD(dom int32, at Time, fn Handler) EventID {
	return e.At2D(dom, at, runClosure, fn, nil, 0)
}

// After schedules fn to run d from now (global domain).
func (e *Engine) After(d Duration, fn Handler) EventID { return e.AtD(0, e.now+d, fn) }

// AfterD schedules fn to run d from now in scheduling domain dom.
func (e *Engine) AfterD(dom int32, d Duration, fn Handler) EventID {
	return e.AtD(dom, e.now+d, fn)
}

// At2 schedules the typed event h(obj, aux, arg) at absolute time at in
// the global domain. The triple is stored inline in the recycled event
// struct, so — given a package-level h and pointer-typed obj/aux —
// scheduling allocates nothing in steady state. Ordering is identical
// to At: events fire in (time, dom, seq) order with seq assigned across
// both APIs by call order.
func (e *Engine) At2(at Time, h Handler2, obj, aux any, arg uint64) EventID {
	return e.At2D(0, at, h, obj, aux, arg)
}

// At2D is At2 with an explicit scheduling domain.
func (e *Engine) At2D(dom int32, at Time, h Handler2, obj, aux any, arg uint64) EventID {
	seq := e.nextSeq
	e.nextSeq++
	ev := e.claim(at, dom, seq, h, obj, aux, arg)
	e.schedule(ev)
	return EventID{ev, seq}
}

// After2D schedules the typed event h(obj, aux, arg) to run d from now
// in scheduling domain dom.
func (e *Engine) After2D(dom int32, d Duration, h Handler2, obj, aux any, arg uint64) EventID {
	return e.At2D(dom, e.now+d, h, obj, aux, arg)
}

// Step executes the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool { return e.dispatch(Forever, true) }

// dispatch is the one pop loop: Step, Run and RunUntil all come through
// it. It takes the queue's minimum — the memo, or else the origin word's
// first occupied bucket, or failing that findMin's scan, against the
// heap root — and stops, leaving it memoized, when that is a live event
// past until. Otherwise it removes the event, feeds the geometry
// statistics and, unless it was canceled, dispatches it; with once set
// it returns after that one dispatch. It reports whether it dispatched.
func (e *Engine) dispatch(until Time, once bool) bool {
	c := e.cal
	for {
		ev := c.cached
		if ev == nil {
			c.advance(e.now)
			if ev = c.originMin(); ev == nil {
				ev = c.findMin()
			}
			// A minimum in the heap is served from there without moving
			// the origin: a run that stops at its deadline leaves it
			// memoized, and nearer events pushed after it must not land
			// behind a jumped origin.
			if len(c.heap) > 0 && (ev == nil || less(c.heap[0], ev)) {
				ev = c.heap[0]
			}
			if ev == nil {
				return false
			}
		}
		if ev.at > until && !ev.canceled {
			c.cached = ev
			return false
		}
		c.cached = nil
		c.n--
		if ev.bucket == calInHeap {
			c.heapPops++
			c.heapRemoveAt(ev.index)
		} else {
			c.unlink(ev)
		}
		if c.havePop {
			if gap := int64(ev.at - c.lastPop); gap > 0 {
				c.gapEWMA += (gap - c.gapEWMA) >> 3
			}
		}
		c.lastPop = ev.at
		c.havePop = true
		if c.sincePop++; c.sincePop >= calResizeEvery {
			c.resize(e.now)
		}
		if ev.canceled {
			// It left the live count at Cancel; the struct is recycled.
			e.recycle(ev)
			continue
		}
		e.live--
		if ev.at != e.now || ev.dom > e.posDom || (ev.dom == e.posDom && ev.seq > e.posSeq) {
			e.posDom, e.posSeq = ev.dom, ev.seq
		}
		e.now = ev.at
		h, obj, aux, arg := ev.h, ev.obj, ev.aux, ev.arg
		e.recycle(ev)
		e.nEvents++
		h(obj, aux, arg)
		if once {
			return true
		}
	}
}

// recycle parks a popped event struct for reuse, dropping its payload
// references so recycled structs never pin handlers, receivers, or
// packets for the GC. The free list needs no cap: a struct is allocated
// only when the list is empty, so the list never holds more structs
// than the queue's own peak population — which was queued at once.
func (e *Engine) recycle(ev *event) {
	ev.index = -1
	ev.h = nil
	ev.obj = nil
	ev.aux = nil
	e.free = append(e.free, ev)
}

// Run executes events until the queue is exhausted. The clock stays at
// the last executed event, with everything at that instant done.
func (e *Engine) Run() {
	e.dispatch(Forever, false)
	e.settleAt(e.now)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if the simulation hasn't already passed it).
func (e *Engine) RunUntil(deadline Time) {
	e.dispatch(deadline, false)
	e.settleAt(deadline)
}

// RunFor executes events for d of simulated time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + d) }
