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
//
// The crowded mode also calls checkWheel — the calendar's structural
// invariants — after every step, so a broken link is caught on the
// operation that broke it rather than when a wrong event surfaces.
// Mutations of calendar.go and of engine.go's schedule and dispatch this
// file was checked to fail under:
//
//   - originMin's origin mask off by one either way (start&63+1, or
//     (start-1)&63);
//   - placeEmpty without its horizon check;
//   - dispatch compares the heap root with the wheel's head the wrong
//     way round;
//   - schedule does not lower the memo a stopped RunUntil left;
//   - heapRemoveAt marks its event -1, or claim leaves a recycled
//     struct's -1: the rescheduled or reused event reads as fired; or
//     recycle leaves a fired event's index: its stale ID still cancels;
//   - Reschedule skips its live-- (schedule counts it in a second time);
//   - extractAll leaves heads[b] set (a regrown wheel reslices them);
//   - place links at the tail without the less() walk;
//   - the new-head case of place does not update heads[b];
//   - unlink of a ring's sole element leaves the occupancy bit set;
//   - the walk-cap spill skips heapPush's ev.bucket = calInHeap;
//   - extractAll leaves next/prev set on the events it returns;
//   - the walk cap removed (order and shape stay right, only the cost
//     goes quadratic: TestWalkCapBoundsBurstCost sees that, in its
//     compare count and in its spill count).

// refModel is the reference the engine is checked against: the live
// pending set as one slice kept sorted by (time, dom, seq). Every
// operation is the naive one — binary-search insert, linear find by
// seq, delete, pop the front — so it shares no logic with calendar.go
// (no wheel, no heap, no lazy cancellation, no resize). It is
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
	opsCrowded                    // + same-instant bursts past calWalk, in and against key order
)

// checkWheel is the white-box half of the differential: the calendar's
// structural invariants, which pop order alone would catch only once the
// wrong event surfaced. Every bucket's occupancy bit says whether it has
// a head; a head starts a ring whose next and prev links agree, whose
// events are in less() order, belong to that bucket's one day inside the
// window, and record the bucket; the rings hold wheelLen() events between
// them; every heap slot tracks its index and orders after its parent.
func checkWheel(t *testing.T, c *calQ) {
	t.Helper()
	n := 0
	for b, head := range c.heads {
		if occ := c.occ[b>>6]&(1<<uint(b&63)) != 0; occ != (head != nil) {
			t.Fatalf("bucket %d: occupancy bit %v, head %v", b, occ, head != nil)
		}
		if head == nil {
			continue
		}
		day := int64(head.at) >> c.logW
		if day < c.curDay || day-c.curDay >= int64(len(c.heads)) || int(day&c.mask) != b {
			t.Fatalf("bucket %d: head's day %d is not the bucket's inside [%d, %d)", b, day, c.curDay, c.curDay+int64(len(c.heads)))
		}
		for ev := head; ; ev = ev.next {
			if n++; n > c.wheelLen() {
				t.Fatalf("bucket %d: ring does not close within wheelLen() = %d events", b, c.wheelLen())
			}
			if ev.next == nil || ev.next.prev != ev || ev.prev == nil || ev.prev.next != ev {
				t.Fatalf("bucket %d: links of event seq %d disagree with its neighbours'", b, ev.seq)
			}
			if int(ev.bucket) != b || ev.index < 0 || int64(ev.at)>>c.logW != day {
				t.Fatalf("bucket %d (day %d): event seq %d at %v records bucket %d index %d", b, day, ev.seq, ev.at, ev.bucket, ev.index)
			}
			if ev.next == head {
				break
			}
			if !less(ev, ev.next) {
				t.Fatalf("bucket %d: event seq %d does not order before its successor seq %d", b, ev.seq, ev.next.seq)
			}
		}
	}
	if n != c.wheelLen() {
		t.Fatalf("rings hold %d events, wheelLen() = %d", n, c.wheelLen())
	}
	for i, ev := range c.heap {
		if ev.index != i || ev.bucket != calInHeap || ev.next != nil || ev.prev != nil {
			t.Fatalf("heap slot %d: event records bucket %d slot %d, linked %v", i, ev.bucket, ev.index, ev.next != nil || ev.prev != nil)
		}
		if i > 0 && less(ev, c.heap[(i-1)>>2]) {
			t.Fatalf("heap slot %d orders before its parent %d", i, (i-1)>>2)
		}
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
	// burstAt is the instant of the latest crowded burst, whose events are
	// split between one ring and the heap: the target of refills and of
	// reschedules into, within and (by the generic reschedule loop) out of
	// both.
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
				e.Arm(k, record, &popKey{k.At, k.Dom, k.Seq}, nil, 0)
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
		k := obj.(*popKey)
		fired = append(fired, popKey{e.Now(), k.dom, k.seq})
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
			e.Arm(k, record, &popKey{k.At, k.Dom, k.Seq}, nil, 0)
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
			k := &popKey{at: at, dom: dom}
			id = e.AtD(dom, at, func() { record(k, nil, 0) })
			k.seq = id.seq
		} else {
			id = keyed(e, dom, at, record)
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
			// Refill: the instant a partial drain just thinned out fills up
			// again, possibly while the clock stands on it; +1 ps lands in
			// the same bucket under another key.
			for i, n := 0, 1+rng.Intn(2*calWalk); i < n; i++ {
				schedule(burstAt+Time(rng.Intn(2)), int32(rng.Intn(7)))
			}
		case pick >= 4:
			// Crowded burst: 1x-4x calWalk events on one instant (one in
			// eight ~50x), seven doms, both APIs. Half arrive in descending
			// dom — every event sorts ahead of all that came before it, the
			// order that defeats tail insertion and meets the walk cap —
			// and half in random dom. Half aim inside the horizon; half go
			// milliseconds out, into the heap whatever their order.
			n := calWalk*(1+rng.Intn(4)) + rng.Intn(calWalk)
			if rng.Intn(8) == 0 {
				n = 50 * calWalk
			}
			burstAt = e.Now() + Duration(1+rng.Intn(16))
			if rng.Intn(2) == 0 {
				burstAt = e.Now() + Duration(1+rng.Intn(10))*Millisecond
			}
			descending := rng.Intn(2) == 0
			for i := 0; i < n; i++ {
				dom := int32(rng.Intn(7))
				if descending {
					dom = int32(6 - 7*i/n)
				}
				schedule(burstAt, dom)
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
			// any initial wheel horizon, so they land in the heap and
			// must be served from it in exact order.
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
		// wheel/heap boundary in both directions — plus attempts on
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
		// Move live events onto the burst's instant and around on it: out
		// of and into its ring and the heap, whichever holds or takes them.
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
			checkWheel(t, e.cal)
		}
		// Partial drain, occasionally a full one — event by event, or
		// up to a deadline, which leaves the engine holding a memoized
		// minimum that the next round's pushes must still order against.
		if mode == opsCrowded && burstAt >= e.Now() && rng.Intn(3) == 0 {
			// Run up to the burst and part of the way through it, so the
			// round ends with its ring, the heap or both part-drained.
			for e.Now() < burstAt && step() {
			}
			for i, n := 0, rng.Intn(5*calWalk); i < n && step(); i++ {
				checkWheel(t, e.cal)
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
		checkWheel(t, e.cal)
	}
	for step() {
	}
	if got, want := e.Stats().PeakLive, m.maxLive; got != want {
		t.Fatalf("PeakLive = %d, model peak %d", got, want)
	}
	// Run on an empty queue settles the instant the clock stands on:
	// idle keys the last event left behind at that instant have fired.
	e.Run()
	m.runUntil(m.now)
	checkReached("after Run")
	if s := e.Stats(); s.Reserved != uint64(reserved) || s.Armed != s.Reserved-uint64(len(m.idle)) {
		t.Fatalf("Stats() = %d reserved, %d armed; model %d, %d", s.Reserved, s.Armed, reserved, reserved-len(m.idle))
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
// full-key ordering), far-future outliers (the heap, and serving the
// minimum straight from it among nearer wheel events), and population
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
// near events (they live permanently in the calendar's heap —
// day arithmetic must not wrap), and canceling them must keep them out
// of the executed stream.
func TestSchedForeverSentinel(t *testing.T) {
	e := New(7)
	var got []popKey
	record := dispatched(e, &got)
	idF := keyed(e, 1, Forever, record) // seq 0
	keyed(e, 2, Forever, record)        // seq 1
	keyed(e, 1, Forever-1, record)      // seq 2
	keyed(e, 1, 10*Microsecond, record) // seq 3
	idC := keyed(e, 3, Forever, record) // seq 4
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
	record := func(obj, _ any, _ uint64) { got = append(got, obj.(*popKey).seq) }
	early := keyed(e, 1, 5*Microsecond, record) // seq 0
	keyed(e, 1, 20*Microsecond, record)         // seq 1
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
	id := keyed(e, 1, e.Now()+Microsecond, record)
	id.Cancel()
	if id.Reschedule(e.Now() + 2*Microsecond) {
		t.Fatal("Reschedule succeeded on a canceled event")
	}
	if n := e.Stats().Rescheduled; n != 1 {
		t.Fatalf("Rescheduled = %d, want 1 (failures must not count)", n)
	}
}

// TestPendingCountsLiveEventsOnly pins the live accounting:
// lazily-canceled structs still sitting in the queue must not inflate
// Pending or the PeakLive peak.
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
	if got := e.Stats().PeakLive; got != 100 {
		t.Fatalf("PeakLive = %d, want peak 100", got)
	}
	// Cancel+new-schedule churn must not ratchet the peak the way
	// the old structure-size accounting did.
	for i := 0; i < 200; i++ {
		ids[i%50].Cancel()
		ids[i%50] = e.At2D(1, Time(500+i)*Microsecond, func(any, any, uint64) {}, nil, nil, 0)
	}
	if got := e.Stats().PeakLive; got != 100 {
		t.Fatalf("PeakLive = %d after churn, want 100 (dead structs must not count)", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0", got)
	}
}

// TestSchedDifferentialCrowded aims at what a same-instant burst does to
// the sorted rings: bursts of 1x-4x and ~50x calWalk on one instant, in
// descending dom (every insertion a walk to the cap and a spill) and in
// random dom, Cancel and Reschedule of events on such an instant (out of
// its ring or the heap, into either, from one to the other), drains that
// stop part-way through a burst followed by refills, and bursts a
// rebuild re-places — with checkWheel asserting the structure after
// every step of those drains.
func TestSchedDifferentialCrowded(t *testing.T) {
	for _, seed := range []uint64{3, 12, 27, 48, 75, 108, 4242} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replayOps(t, seed, 100, opsCrowded)
		})
	}
}

// TestCrowdedBucketRelocation pins the two bulk paths that put a
// same-instant burst into the calendar other than by one push per event
// on a settled geometry: a rebuild, and a burst the horizon cuts in two —
// half scheduled while its instant was out of reach, so in the heap, half
// after the clock came within a horizon of it, so in a ring. Each must
// leave the structure checkWheel describes and drain in key order.
func TestCrowdedBucketRelocation(t *testing.T) {
	const n = 5 * calWalk
	var got, want []popKey
	// burst schedules k events at one instant on e, doms cycling downward
	// from hi so they arrive out of key order.
	burst := func(e *Engine, at Time, k int, hi int32) {
		for i := 0; i < k; i++ {
			dom := hi - int32(i%3)
			id := keyed(e, dom, at, dispatched(e, &got))
			want = append(want, popKey{at, dom, id.seq})
		}
	}
	// drain runs e dry a step at a time, requiring the structure to hold
	// after every pop and the pops to come in key order.
	drain := func(t *testing.T, e *Engine) {
		t.Helper()
		sort.Slice(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
		for e.Step() {
			checkWheel(t, e.cal)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("drain order diverged from key order:\n got %+v\nwant %+v", got, want)
		}
	}
	const near = 100 * Nanosecond // inside a fresh wheel's 512 ns horizon
	t.Run("rebuild", func(t *testing.T) {
		got, want = nil, nil
		e := New(1)
		burst(e, near, n, 5)
		e.cal.rebuild(4*len(e.cal.heads), e.cal.logW-3, e.now)
		if r := e.Stats().Rebuilds; r != 1 || e.cal.len() != n {
			t.Fatalf("after rebuild: %d rebuilds, %d events queued, want 1 and %d", r, e.cal.len(), n)
		}
		checkWheel(t, e.cal)
		drain(t, e)
	})
	t.Run("horizon", func(t *testing.T) {
		got, want = nil, nil
		e := New(1)
		const far = 10 * Microsecond // beyond the horizon: into the heap
		burst(e, far, n/2, 3)
		e.At2D(1, far-near, func(any, any, uint64) {}, nil, nil, 0)
		e.Step() // served from the heap: the clock is now within a horizon of far
		// Doms above, among and below the heap's, so the drain has to take
		// the minimum from each container in turn.
		burst(e, far, calWalk, 6)
		burst(e, far, calWalk, 2)
		if e.cal.wheelLen() == 0 || len(e.cal.heap) < n/2 || e.Stats().PeakHeap != max(len(e.cal.heap), n/2+1) {
			t.Fatalf("setup: %d events in the wheel, %d in the heap (peak %d)", e.cal.wheelLen(), len(e.cal.heap), e.Stats().PeakHeap)
		}
		checkWheel(t, e.cal)
		drain(t, e)
		if e.cal.wheelLen() != 0 || len(e.cal.heap) != 0 {
			t.Fatalf("after the drain: %d events in the wheel, %d in the heap", e.cal.wheelLen(), len(e.cal.heap))
		}
	})
}

// TestRebuildReusesHeads: a wheel that shrinks and then regrows to a
// bucket count it has had before reslices the heads and occupancy arrays
// it kept, so a geometry flipping between two sizes allocates nothing,
// and the events it re-places still drain in key order.
func TestRebuildReusesHeads(t *testing.T) {
	var got, want []popKey
	e := New(1)
	for i := 0; i < 200; i++ {
		at, dom := Time(i%50)*Nanosecond, int32(i%3)
		id := keyed(e, dom, at, dispatched(e, &got))
		want = append(want, popKey{at, dom, id.seq})
	}
	c := e.cal
	small, big := len(c.heads), 64*len(c.heads)
	c.rebuild(big, c.logW, e.now) // the first regrowth allocates
	if allocs := testing.AllocsPerRun(10, func() {
		c.rebuild(small, c.logW, e.now)
		c.rebuild(big, c.logW, e.now)
	}); allocs != 0 {
		t.Fatalf("a shrink and a regrow to %d buckets allocated %.0f times, want none", big, allocs)
	}
	checkWheel(t, c)
	sort.Slice(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
	e.Run()
	if !slices.Equal(got, want) {
		t.Fatalf("drain order diverged from key order:\n got %+v\nwant %+v", got, want)
	}
}

// TestWalkCapBoundsBurstCost is the complexity guard: k events on one
// instant arriving in strictly descending key order — each sorts ahead of
// every one before it, so a sorted insert from the tail walks the whole
// ring — must cost what the cap promises. calQ.cmps is the hook: it
// counts each link place walks and each less() a heap sift makes. No
// push may walk more than calWalk links (one that stays in the wheel
// counts nothing else; one that spills adds a sift-up of at most the
// heap's depth), so building the burst costs at most k·(calWalk + log₄k);
// draining it costs a sift-down of 4 compares a level for each pop, plus
// a second placement for every event a geometry rebuild on the way
// re-places. An uncapped walk makes k²/2 = 12.5 M compares where this
// allows 0.5 M.
func TestWalkCapBoundsBurstCost(t *testing.T) {
	const k = 5000
	e := New(1)
	c := e.cal
	nop := func(any, any, uint64) {}
	depth := func(n int) uint64 { // levels above the last slot of an n-slot 4-ary heap
		d := uint64(0)
		for i := n - 1; i > 0; i = (i - 1) >> 2 {
			d++
		}
		return d
	}
	for i := 0; i < k; i++ {
		before := c.cmps
		id := e.At2D(int32(k-i), 100*Nanosecond, nop, nil, nil, 0)
		limit := uint64(calWalk)
		if id.ev.bucket == calInHeap {
			limit += depth(len(c.heap))
		}
		if cost := c.cmps - before; cost > limit {
			t.Fatalf("push %d (%d in the wheel, %d in the heap) cost %d compares, want at most %d", i, c.wheelLen(), len(c.heap), cost, limit)
		}
	}
	// calWalk links reach the head of a ring of calWalk+1, so the ring
	// takes one more before the first spill.
	if spills := e.Stats().WalkSpills; c.wheelLen() != calWalk+2 || spills != k-calWalk-2 {
		t.Fatalf("%d events in the wheel after %d spills, want %d and %d", c.wheelLen(), spills, calWalk+2, k-calWalk-2)
	}
	checkWheel(t, c)
	place := k * (calWalk + depth(k))
	built := c.cmps
	e.Run()
	if e.Executed() != k {
		t.Fatalf("executed %d of %d events", e.Executed(), k)
	}
	drained := c.cmps - built
	t.Logf("%d-event worst-order burst: %d compares to build, %d to drain over %d rebuilds (%.1f an event)",
		k, built, drained, e.Stats().Rebuilds, float64(c.cmps)/k)
	if bound := k*4*depth(k) + uint64(e.Stats().Rebuilds)*place; built > place || drained > bound {
		t.Fatalf("a %d-event worst-order burst cost %d compares to build (bound %d) and %d to drain (bound %d): the walk cap no longer holds",
			k, built, place, drained, bound)
	}
}
