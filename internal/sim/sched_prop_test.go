package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// Differential scheduler properties: the calendar queue must be
// observationally indistinguishable from the obvious implementation of
// its contract. Each test replays one seeded operation stream —
// schedules across domains and horizons, cancels, in-place reschedules,
// partial drains — against an engine and, in lockstep, against refModel
// below, and requires the executed (time, dom, seq) stream, the
// live-event accounting, and every Cancel/Reschedule outcome to agree
// exactly. If pop order or the Reschedule branch ever diverged from the
// model, seq streams would shift and no run could stay byte-identical
// with the recorded ones.
//
// Reserved keys (Engine.Reserve / Arm / Reached) are checked the same
// way: the model does what an engine without them would do — it inserts
// every reserved key at once, as an event with nothing to do — and
// remembers the moment each one fires; the engine, which queues a
// reserved key only if Arm is called, must dispatch exactly the model's
// other events and answer Reached(k) with "the model has fired k" at
// every dispatch and after every run.

// refModel is the reference the engine is checked against: the live
// pending set as one slice kept sorted by (time, dom, seq). Every
// operation is the naive one — binary-search insert, linear find by
// seq, delete, pop the front — so it shares no logic with calendar.go
// (no wheel, no overflow heap, no lazy cancellation, no resize). It is
// valid for the streams these tests generate: events are scheduled
// between steps or from the handler of the event being dispatched, at
// times not before now.
type refModel struct {
	now     Time
	nextSeq uint64
	pending []popKey // live events only, sorted by keyLess
	maxLive int

	// idle holds the seqs of reserved keys not armed so far: queued here,
	// absent from the engine. nIdle counts those still in pending, so
	// live() is what the engine's Pending must report. passed records
	// every reserved key that has fired, armed or not.
	idle   map[uint64]bool
	nIdle  int
	passed map[uint64]bool
}

func newRefModel() *refModel {
	return &refModel{idle: map[uint64]bool{}, passed: map[uint64]bool{}}
}

func (m *refModel) live() int { return len(m.pending) - m.nIdle }

func (m *refModel) insert(k popKey) {
	i := sort.Search(len(m.pending), func(i int) bool { return keyLess(k, m.pending[i]) })
	m.pending = slices.Insert(m.pending, i, k)
}

// find returns the slot of the live event with sequence number seq, or
// -1 when it already fired or was canceled.
func (m *refModel) find(seq uint64) int {
	return slices.IndexFunc(m.pending, func(k popKey) bool { return k.seq == seq })
}

func (m *refModel) schedule(at Time, dom int32) uint64 {
	seq := m.nextSeq
	m.nextSeq++
	m.insert(popKey{at, dom, seq})
	m.maxLive = max(m.maxLive, m.live())
	return seq
}

// reserve queues the key eagerly, as an event that will do nothing.
func (m *refModel) reserve(at Time, dom int32) uint64 {
	seq := m.nextSeq
	m.nextSeq++
	m.insert(popKey{at, dom, seq})
	m.idle[seq] = true
	m.nIdle++
	return seq
}

// arm turns a reserved key that has not fired into an ordinary event.
func (m *refModel) arm(seq uint64) {
	delete(m.idle, seq)
	m.nIdle--
	m.maxLive = max(m.maxLive, m.live())
}

// popFront fires the earliest pending entry.
func (m *refModel) popFront() popKey {
	k := m.pending[0]
	m.pending = m.pending[1:]
	if m.idle[k.seq] {
		m.nIdle--
	}
	if _, reserved := m.passed[k.seq]; reserved {
		m.passed[k.seq] = true
	}
	return k
}

func (m *refModel) cancel(seq uint64) bool {
	i := m.find(seq)
	if i < 0 {
		return false
	}
	m.pending = slices.Delete(m.pending, i, i+1)
	return true
}

// reschedule moves a live event to at, keeping its dom and seq.
func (m *refModel) reschedule(seq uint64, at Time) bool {
	i := m.find(seq)
	if i < 0 {
		return false
	}
	k := m.pending[i]
	k.at = at
	m.pending = slices.Delete(m.pending, i, i+1)
	m.insert(k)
	return true
}

// step fires entries up to and including the next one the engine holds
// too (idle reserved keys on the way fire unseen), or nothing when only
// idle keys are left: a bare Engine.Step moves no clock for them.
func (m *refModel) step() (popKey, bool) {
	if m.live() == 0 {
		return popKey{}, false
	}
	for {
		k := m.popFront()
		if !m.idle[k.seq] {
			m.now = k.at
			return k, true
		}
	}
}

// runUntil fires everything at or before deadline, as RunUntil does, and
// returns the entries the engine must have dispatched.
func (m *refModel) runUntil(deadline Time) []popKey {
	var ran []popKey
	for len(m.pending) > 0 && m.pending[0].at <= deadline {
		if k := m.popFront(); !m.idle[k.seq] {
			ran = append(ran, k)
		}
	}
	m.now = max(m.now, deadline)
	return ran
}

// opsMode selects the shapes replayOps generates; each mode keeps the
// shapes of the ones before it.
type opsMode int

const (
	opsRandom      opsMode = iota // short-horizon traffic only
	opsAdversarial                // + small same-instant bursts, far-future outliers
	opsCrowded                    // + bursts that build, drain, refill and move crowded buckets
)

// checkBuckets is the white-box half of the crowded-bucket property:
// every wheel bucket tracks its events' slots, and one longer than
// calCrowded is a 4-ary min-heap in less() order. Pop order alone would
// catch a broken heap only when the wrong event surfaced; this catches
// it on the operation that broke it.
func checkBuckets(t *testing.T, c *calQ) {
	t.Helper()
	n := 0
	for b, h := range c.buckets {
		n += len(h)
		if occ := c.occ[b>>6]&(1<<uint(b&63)) != 0; occ != (len(h) > 0) {
			t.Fatalf("bucket %d: occupancy bit %v with %d events", b, occ, len(h))
		}
		for i, ev := range h {
			if ev.index != i || int(ev.bucket) != b {
				t.Fatalf("bucket %d slot %d: event records bucket %d slot %d", b, i, ev.bucket, ev.index)
			}
			if len(h) > calCrowded && i > 0 && less(ev, h[(i-1)>>2]) {
				t.Fatalf("crowded bucket %d (%d events): slot %d orders before its parent %d", b, len(h), i, (i-1)>>2)
			}
		}
	}
	if n != c.wheelN {
		t.Fatalf("wheel holds %d events, wheelN = %d", n, c.wheelN)
	}
}

// replayOps drives a fresh engine and a fresh refModel through the op
// stream derived from seed, comparing them after every operation. All
// decisions come from a private RNG and the tracked-ID table.
func replayOps(t *testing.T, seed uint64, rounds int, mode opsMode) {
	t.Helper()
	rng := NewRand(seed)
	e := New(seed)
	m := newRefModel()
	var ids []EventID
	var keys []Key // every key reserved ahead of the dispatch position
	reserved := 0  // Reserve calls, the ones born behind it included
	// burstAt is the instant of the latest crowded burst: the target of
	// refills and of reschedules into, within and (by the generic
	// reschedule loop) out of a crowded bucket.
	burstAt := Time(-1)
	var fired []popKey
	// checkReached holds the engine to the model on every key reserved
	// so far: reached exactly when the model has fired it.
	checkReached := func(where string) {
		t.Helper()
		for _, k := range keys {
			if got, want := e.Reached(k), m.passed[k.Seq]; got != want {
				t.Fatalf("%s: Reached(%+v) = %v with the clock at %v; the model's eager no-op at that key has fired: %v",
					where, k, got, e.Now(), want)
			}
		}
	}
	// armSome queues a random subset of the reserved keys that are still
	// ahead (the model knows which).
	var record Handler2
	armSome := func(oneIn int) {
		for _, k := range keys {
			if m.idle[k.Seq] && !m.passed[k.Seq] && rng.Intn(oneIn) == 0 {
				e.Arm(k, record, nil, nil, 0)
				m.arm(k.Seq)
			}
		}
	}
	// lockstep is set while the model has been stepped to the very event
	// the engine is dispatching, so the handler may compare the two and
	// act on both: Reached from inside a dispatch, arming a key
	// mid-instant, and a same-instant schedule into another domain — a
	// lower one runs next without un-passing anything.
	lockstep := false
	var schedule func(at Time, dom int32)
	record = func(obj, aux any, arg uint64) {
		fired = append(fired, popKey{e.Now(), e.curDom, e.curSeq})
		if !lockstep {
			return
		}
		checkReached("inside a dispatch")
		armSome(6)
		if rng.Intn(8) == 0 {
			schedule(e.Now(), int32(rng.Intn(7)))
		}
	}
	reserve := func(at Time, dom int32) {
		k := e.Reserve(dom, at)
		if seq := m.reserve(at, dom); k != (Key{At: at, Seq: seq, Dom: dom}) {
			t.Fatalf("Reserve(%d, %v) = %+v, model assigned seq %d", dom, at, k, seq)
		}
		reserved++
		if e.Reached(k) {
			// Reserved for the instant the clock stands on, under a key
			// dispatch order is already past: only a queued event can
			// stand for it, so it is armed at once and never asked about.
			e.Arm(k, record, nil, nil, 0)
			m.arm(k.Seq)
			return
		}
		m.passed[k.Seq] = false
		keys = append(keys, k)
	}
	schedule = func(at Time, dom int32) {
		// Either API: seq is assigned by call order across both.
		var id EventID
		if rng.Intn(2) == 0 {
			id = e.AtD(dom, at, func() { record(nil, nil, 0) })
		} else {
			id = e.At2D(dom, at, record, nil, nil, 0)
		}
		if seq := m.schedule(at, dom); id.seq != seq {
			t.Fatalf("schedule %d: engine assigned seq %d, model %d", len(ids), id.seq, seq)
		}
		ids = append(ids, id)
	}
	pops := 0
	step := func() bool {
		fired = fired[:0]
		want, wok := m.step()
		lockstep = true
		ok := e.Step()
		lockstep = false
		if ok != wok {
			t.Fatalf("pop %d: engine Step() = %v, model has event = %v", pops, ok, wok)
		}
		if !ok {
			return false
		}
		if len(fired) != 1 || fired[0] != want {
			t.Fatalf("pop %d diverged: engine %+v, model %+v", pops, fired, want)
		}
		pops++
		return true
	}
	for round := 0; round < rounds; round++ {
		// Picks 0-3 are the shapes every mode shares (2 and 3 are plain
		// traffic); the crowded mode draws three more.
		picks := 4
		if mode == opsCrowded {
			picks = 7
		}
		switch pick := rng.Intn(picks); {
		case pick == 4 && burstAt >= e.Now():
			// Refill: the bucket a partial drain just took down through
			// calCrowded goes back up, possibly while the clock stands on
			// its instant; +1 ps lands in the same bucket under another key.
			for i, n := 0, 1+rng.Intn(2*calCrowded); i < n; i++ {
				schedule(burstAt+Time(rng.Intn(2)), int32(rng.Intn(7)))
			}
		case pick >= 4:
			// Crowded burst: 1x-4x calCrowded events on one instant (one in
			// eight ~50x), seven doms, both APIs. Half land in the wheel;
			// half go milliseconds out so they cross the overflow heap and
			// migrate into one bucket together.
			n := calCrowded*(1+rng.Intn(4)) + rng.Intn(calCrowded)
			if rng.Intn(8) == 0 {
				n = 50 * calCrowded
			}
			burstAt = e.Now() + Duration(1+rng.Intn(16))
			if rng.Intn(2) == 0 {
				burstAt = e.Now() + Duration(1+rng.Intn(10))*Millisecond
			}
			for i := 0; i < n; i++ {
				schedule(burstAt, int32(rng.Intn(7)))
			}
		case mode >= opsAdversarial && pick == 0:
			// Same-timestamp burst: one instant, many domains, both
			// in-order and reversed dom arrival, so every
			// bucket-internal full-key comparison gets exercised at once.
			at := e.Now() + Duration(1+rng.Intn(16))
			for i, n := 0, 8+rng.Intn(24); i < n; i++ {
				schedule(at, int32(rng.Intn(5)))
			}
		case mode >= opsAdversarial && pick == 1:
			// Far-future outliers: milliseconds-to-seconds out, far past
			// any initial wheel horizon, so they land in overflow and
			// must migrate (or be served from overflow) in exact order.
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				at := e.Now() + Duration(1+rng.Intn(10))*Millisecond +
					Duration(rng.Intn(int(Second)))
				schedule(at, int32(rng.Intn(5)))
			}
		default:
			// Short-horizon traffic, the dominant shape: dense enough
			// that a drained round crosses calendar resize boundaries.
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				schedule(e.Now()+Duration(1+rng.Intn(2000)), int32(rng.Intn(5)))
			}
		}
		// Reserve a few keys, most of them on an instant that already
		// holds events (the latest burst, or a tracked event's time) so
		// that dom and seq decide on which side of each they fall; then
		// arm some of the outstanding ones late.
		for i, n := 0, rng.Intn(4); i < n; i++ {
			at := e.Now() + Duration(1+rng.Intn(16))
			if id := ids[rng.Intn(len(ids))]; id.Pending() && rng.Intn(4) != 0 {
				at = id.ev.at
			} else if burstAt >= e.Now() && rng.Intn(2) == 0 {
				at = burstAt
			}
			reserve(at, int32(rng.Intn(7)))
		}
		armSome(4)
		// Cancel a random subset, dead IDs included: the engine must
		// refuse exactly the ones the model no longer holds.
		for i := range ids {
			if rng.Intn(8) != 0 {
				continue
			}
			if got, want := ids[i].Cancel(), m.cancel(ids[i].seq); got != want {
				t.Fatalf("round %d: Cancel(seq %d) = %v, model %v", round, ids[i].seq, got, want)
			}
		}
		// Reschedule a random subset — nearer, further, across the
		// wheel/overflow boundary in both directions — plus attempts on
		// dead IDs, which must fail exactly where the model's do.
		for i := range ids {
			if rng.Intn(6) != 0 {
				continue
			}
			var at Time
			if rng.Intn(3) == 0 {
				at = e.Now() + Duration(1+rng.Intn(5))*Millisecond // out past the horizon
			} else {
				at = e.Now() + Duration(1+rng.Intn(500)) // near
			}
			if got, want := ids[i].Reschedule(at), m.reschedule(ids[i].seq, at); got != want {
				t.Fatalf("round %d: Reschedule(seq %d) = %v, model %v — the in-place path must succeed exactly on live events",
					round, ids[i].seq, got, want)
			}
		}
		// Move live events into the crowded bucket and around inside it.
		if mode == opsCrowded && burstAt >= e.Now() {
			for i := range ids {
				if rng.Intn(12) != 0 {
					continue
				}
				at := burstAt + Time(rng.Intn(2))
				if got, want := ids[i].Reschedule(at), m.reschedule(ids[i].seq, at); got != want {
					t.Fatalf("round %d: Reschedule(seq %d) into the burst = %v, model %v", round, ids[i].seq, got, want)
				}
			}
			checkBuckets(t, e.cal)
		}
		// Partial drain, occasionally a full one — event by event, or
		// up to a deadline, which leaves the engine holding a peeked
		// minimum that the next round's pushes must still order against.
		if mode == opsCrowded && burstAt >= e.Now() && rng.Intn(3) == 0 {
			// Run up to the burst and part of the way through it, so its
			// bucket ends the round on either side of calCrowded.
			for e.Now() < burstAt && step() {
			}
			for i, n := 0, rng.Intn(5*calCrowded); i < n && step(); i++ {
				checkBuckets(t, e.cal)
			}
		} else if rng.Intn(4) == 0 {
			deadline := e.Now() + Duration(rng.Intn(3000))
			if len(keys) > 0 && rng.Intn(2) == 0 {
				// Stop on the very instant of a reserved key: the run's
				// tail must leave it reached whichever dom it is in.
				if k := keys[rng.Intn(len(keys))]; k.At >= e.Now() {
					deadline = k.At
				}
			}
			fired = fired[:0]
			e.RunUntil(deadline)
			want := m.runUntil(deadline)
			if !slices.Equal(fired, want) {
				t.Fatalf("round %d: RunUntil(%v) diverged: engine %+v, model %+v", round, deadline, fired, want)
			}
			pops += len(want)
		} else {
			n := rng.Intn(20)
			if rng.Intn(16) == 0 {
				n = 1 << 20
			}
			for i := 0; i < n && step(); i++ {
			}
		}
		if got, want := e.Pending(), m.live(); got != want {
			t.Fatalf("round %d: Pending() = %d, model holds %d live events", round, got, want)
		}
		if e.Now() != m.now {
			t.Fatalf("round %d: engine clock %v, model %v", round, e.Now(), m.now)
		}
		checkReached(fmt.Sprintf("round %d", round))
		checkBuckets(t, e.cal)
	}
	for step() {
	}
	if got, want := e.MaxPending(), m.maxLive; got != want {
		t.Fatalf("MaxPending() = %d, model peak %d", got, want)
	}
	// Run on an empty queue settles the instant the clock stands on:
	// idle keys the last event left behind at that instant have fired.
	e.Run()
	m.runUntil(m.now)
	checkReached("after Run")
	if r, a := e.Reserved(); r != uint64(reserved) || a != r-uint64(len(m.idle)) {
		t.Fatalf("Reserved() = %d reserved, %d armed; model %d, %d", r, a, reserved, reserved-len(m.idle))
	}
}

// TestSchedDifferentialRandom checks the engine against the model over
// mixed random Push/Pop/Cancel/Reschedule interleavings.
func TestSchedDifferentialRandom(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 34, 6502, 68000} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replayOps(t, seed, 120, opsRandom)
		})
	}
}

// TestSchedDifferentialAdversarial turns on the shapes that target the
// calendar queue's weak spots: all-same-timestamp bursts (intra-bucket
// full-key ordering), far-future outliers (overflow spill, refill
// order, serving the minimum straight from overflow), and population
// swings across resize boundaries (rebuild must re-place every event
// without disturbing order).
func TestSchedDifferentialAdversarial(t *testing.T) {
	for _, seed := range []uint64{4, 9, 16, 25, 36, 49, 31337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replayOps(t, seed, 150, opsAdversarial)
		})
	}
}

// TestSchedForeverSentinel pins the far edge of the time axis: events
// at Forever and Forever-1 must order correctly against each other and
// near events (they live permanently in the calendar's overflow heap —
// day arithmetic must not wrap), and canceling them must keep them out
// of the executed stream.
func TestSchedForeverSentinel(t *testing.T) {
	e := New(7)
	var got []popKey
	record := func(obj, aux any, arg uint64) {
		got = append(got, popKey{e.Now(), e.curDom, e.curSeq})
	}
	idF := e.At2D(1, Forever, record, nil, nil, 0) // seq 0
	e.At2D(2, Forever, record, nil, nil, 0)        // seq 1
	e.At2D(1, Forever-1, record, nil, nil, 0)      // seq 2
	e.At2D(1, 10*Microsecond, record, nil, nil, 0) // seq 3
	idC := e.At2D(3, Forever, record, nil, nil, 0) // seq 4
	idC.Cancel()
	want := []popKey{
		{10 * Microsecond, 1, 3},
		{Forever - 1, 1, 2},
		{Forever, 1, 0},
		{Forever, 2, 1},
	}
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if idF.Pending() || idF.Reschedule(Forever) {
		t.Fatal("fired Forever event still reschedulable")
	}
}

// TestRescheduleSemantics pins the Reschedule contract: an in-place
// move keeps the event's original seq (so at
// its new time it outranks events scheduled later, even if they were
// pushed first at that timestamp), fails after fire/cancel, and the
// resched counter counts only successes.
func TestRescheduleSemantics(t *testing.T) {
	e := New(11)
	var got []uint64
	record := func(obj, aux any, arg uint64) { got = append(got, e.curSeq) }
	early := e.At2D(1, 5*Microsecond, record, nil, nil, 0) // seq 0
	e.At2D(1, 20*Microsecond, record, nil, nil, 0)         // seq 1
	if !early.Reschedule(20 * Microsecond) {
		t.Fatal("Reschedule refused a pending event")
	}
	if !early.Pending() {
		t.Fatal("event lost pending state across Reschedule")
	}
	e.Run()
	// Both now fire at 20µs; the rescheduled event keeps seq 0 and
	// must run first.
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("executed seqs %v, want [0 1]", got)
	}
	if early.Reschedule(e.Now() + Microsecond) {
		t.Fatal("Reschedule succeeded on a fired event")
	}
	id := e.At2D(1, e.Now()+Microsecond, record, nil, nil, 0)
	id.Cancel()
	if id.Reschedule(e.Now() + 2*Microsecond) {
		t.Fatal("Reschedule succeeded on a canceled event")
	}
	if n := e.Rescheduled(); n != 1 {
		t.Fatalf("Rescheduled() = %d, want 1 (failures must not count)", n)
	}
}

// TestPendingCountsLiveEventsOnly pins the live accounting:
// lazily-canceled structs still sitting in the queue must not inflate
// Pending or the MaxPending peak.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := New(3)
	var ids []EventID
	for i := 0; i < 100; i++ {
		ids = append(ids, e.At2D(1, Time(i+1)*Microsecond, func(any, any, uint64) {}, nil, nil, 0))
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("Pending = %d, want 100", got)
	}
	for _, id := range ids[50:] {
		id.Cancel()
	}
	// The canceled 50 are still queued (lazy cancellation) but no
	// longer live.
	if got := e.Pending(); got != 50 {
		t.Fatalf("Pending = %d after canceling 50, want 50", got)
	}
	if got := e.MaxPending(); got != 100 {
		t.Fatalf("MaxPending = %d, want peak 100", got)
	}
	// Cancel+new-schedule churn must not ratchet the peak the way
	// the old structure-size accounting did.
	for i := 0; i < 200; i++ {
		ids[i%50].Cancel()
		ids[i%50] = e.At2D(1, Time(500+i)*Microsecond, func(any, any, uint64) {}, nil, nil, 0)
	}
	if got := e.MaxPending(); got != 100 {
		t.Fatalf("MaxPending = %d after churn, want 100 (dead structs must not count)", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0", got)
	}
}

// TestSchedDifferentialCrowded aims at the crowded-bucket heap: bursts
// of 1x-4x and ~50x calCrowded on one instant, Cancel and Reschedule of
// events inside such a bucket (out of it, into it, within it), drains
// that stop part-way through a burst followed by refills back over the
// threshold, and bursts that reach their bucket through the overflow
// heap or a rebuild — with checkBuckets asserting the heap shape after
// every step of those drains.
func TestSchedDifferentialCrowded(t *testing.T) {
	for _, seed := range []uint64{3, 12, 27, 48, 75, 108, 4242} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replayOps(t, seed, 100, opsCrowded)
		})
	}
}

// TestCrowdedBucketRelocation pins the three bulk paths that put events
// into a crowded bucket without going through push: a geometry rebuild,
// ShardGroup.Activate moving a same-instant burst from the root queue to
// a shard, and overflow migration into a bucket that already holds
// events. Each must leave a heap behind and drain in key order.
func TestCrowdedBucketRelocation(t *testing.T) {
	const n = 5 * calCrowded
	var got, want []popKey
	// burst schedules k events at one instant on e, doms cycling downward
	// from hi so they arrive out of key order; on is the engine they run on.
	burst := func(e, on *Engine, at Time, k int, hi int32) {
		for i := 0; i < k; i++ {
			dom := hi - int32(i%3)
			id := e.At2D(dom, at, func(any, any, uint64) {
				got = append(got, popKey{on.Now(), on.curDom, on.curSeq})
			}, nil, nil, 0)
			want = append(want, popKey{at, dom, id.seq})
		}
	}
	// drain runs e dry and requires key order and the expected counters:
	// the last calCrowded pops leave a bucket that is a heap no more.
	drain := func(t *testing.T, e *Engine) {
		t.Helper()
		if e.PeakBucket() != n {
			t.Fatalf("PeakBucket() = %d, want the %d-event burst", e.PeakBucket(), n)
		}
		sort.Slice(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
		e.Run()
		if !slices.Equal(got, want) {
			t.Fatalf("drain order diverged from key order:\n got %+v\nwant %+v", got, want)
		}
		if e.CrowdedPops() != n-calCrowded {
			t.Fatalf("CrowdedPops() = %d, want %d", e.CrowdedPops(), n-calCrowded)
		}
	}
	const near = 100 * Nanosecond // inside a fresh wheel's 512 ns horizon
	t.Run("rebuild", func(t *testing.T) {
		got, want = nil, nil
		e := New(1)
		burst(e, e, near, n, 5)
		e.cal.rebuild(4*len(e.cal.buckets), e.cal.logW-3, e.now)
		checkBuckets(t, e.cal)
		drain(t, e)
	})
	t.Run("activate", func(t *testing.T) {
		got, want = nil, nil
		root := New(1)
		g := NewShardGroup(root, 2, Microsecond)
		for d := int32(1); d <= 5; d++ {
			g.AssignDom(d, 1)
		}
		burst(root, g.Shard(1), near, n, 5)
		g.Activate()
		if root.cal.len() != 0 {
			t.Fatalf("root still holds %d events after Activate", root.cal.len())
		}
		checkBuckets(t, g.Shard(1).cal)
		drain(t, root) // the root folds shard counters in, as for Rescheduled
	})
	t.Run("migrate", func(t *testing.T) {
		got, want = nil, nil
		e := New(1)
		const far = 10 * Microsecond // beyond the horizon: parked in overflow
		burst(e, e, far, n-calCrowded, 3)
		e.At2D(1, far-near, func(any, any, uint64) {}, nil, nil, 0)
		e.Step() // served from overflow: the clock is now within a horizon of far
		// These land in the wheel directly, unordered and under higher
		// doms, so every migrant that follows must sift up past them.
		burst(e, e, far, calCrowded, 6)
		if e.cal.wheelN != calCrowded || len(e.cal.over) != n-calCrowded {
			t.Fatalf("setup: %d events in the wheel, %d in overflow", e.cal.wheelN, len(e.cal.over))
		}
		e.cal.peek(e.now)
		if len(e.cal.over) != 0 {
			t.Fatalf("%d events still in overflow after peek", len(e.cal.over))
		}
		checkBuckets(t, e.cal)
		drain(t, e)
	})
}
