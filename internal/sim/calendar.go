package sim

import (
	"math/bits"
	"slices"
)

// Calendar-queue event scheduler (Brown 1988, as used by ns-3's
// calendar scheduler and kernel timer wheels): the engine's one
// pending-event queue. An event is in exactly one of two containers:
//
//   - a power-of-two wheel of "day" buckets covers the near future.
//     A day is ev.at >> logW (logW = log2 of the bucket width in
//     picoseconds); the day's bucket is day & mask. A bucket is eight
//     bytes: the head of a circular doubly-linked list threaded through
//     the events themselves (event.next/prev) and kept in less() order.
//     Nothing is allocated per bucket or per push, and the bucket's
//     minimum is its head — found by arithmetic on the occupancy bitmap,
//     not by comparing.
//   - one index-tracked 4-ary min-heap holds every event the wheel
//     declines: those whose day lies beyond the wheel's span (RTOs, idle
//     watchdogs, end-of-run timers) and those whose sorted insertion
//     would walk more than calWalk links (see place).
//
// The queue minimum is the less()-er of the first occupied bucket's head
// and the heap root. That one full-key compare makes either container a
// correct home for any event, so nothing ever moves from the heap into
// the wheel as the clock approaches it: a far timer costs one heap push
// and one heap pop, and there is no migration loop to keep ordered.
//
// Determinism: pop order must be exactly (time, dom, seq) by the less()
// comparator — what a sort of the pending set would give, and what the
// ordered-slice reference model in sched_prop_test.go checks. Every
// queued event satisfies ev.at >= engine.now (Engine.schedule rejects
// the past), and curDay only ever advances to day(now), so wheel
// days always lie in [curDay, curDay+N). Within that window day ->
// bucket is injective, meaning the first occupied bucket at or after
// curDay holds exactly the events of the earliest day the wheel knows —
// no per-event day check needed — and its sorted head is their minimum.
//
// Sorted insertion walks back from the tail, because events of one day
// mostly arrive in key order: time order within the day, and FIFO (seq)
// among equals. At the resolution below a bucket holds ≈ 0.3 events, so
// the walk is zero or one link. What it cannot absorb is a same-instant
// burst arriving against key order — a model that arms one timer per
// port or per flow on a shared picosecond, in descending dom — which no
// bucket width separates. The walk is therefore capped: past calWalk
// links the event goes to the heap instead, and a burst of k such events
// costs k·(calWalk + log k) by construction, where an uncapped walk
// costs k²/2. WalkSpills counts them; a run without synchronised timers
// reads ≈ 0 (see experiments.TestNoSynchronisedTimerBurst).
//
// The adaptive geometry is resized at most once per calResizeEvery
// pops, with hysteresis, by rebuilding: bucket count tracks 8x the queue
// population and bucket width half an EWMA of inter-pop gaps, so a
// Table 3-scale run (~64k pending, sub-ns gaps) and a sparse teardown
// tail pick different geometries without tuning flags. Eight buckets an
// event is what an 8-byte bucket buys: the horizon (count x width ≈ 2n
// gaps) is what a coarser wheel of the same population would span, but a
// bucket almost never holds two events, so almost no push compares.
type calQ struct {
	heads  []*event // per bucket: least event of a less()-ordered ring, nil when empty
	occ    []uint64 // occupancy bitmap, one bit per bucket
	mask   int64    // len(heads)-1; bucket count is a power of two
	logW   uint     // log2(bucket width in Time units)
	curDay int64    // scan origin; advanced monotonically to day(now)
	n      int      // events queued, wheel and heap: schedule counts in, dispatch and remove out
	heap   []*event // 4-ary min-heap, full-key order: beyond the horizon, or spilled
	cached *event   // memoized queue minimum where a run stopped short of it, else nil
	spare  []*event // rebuild's extraction buffer, kept between rebuilds

	// Adaptive-width state: EWMA of nonzero inter-pop gaps (the
	// zero-gap bursts of same-time events carry no width information)
	// and a pop countdown that rate-limits resize checks.
	gapEWMA  int64
	lastPop  Time
	havePop  bool
	sincePop int

	// What the structure can waste, each written off the common path:
	// pops served from the heap root, events the walk cap (not the
	// horizon) sent to the heap, the heap's high-water mark, and geometry
	// rebuilds.
	heapPops   uint64
	walkSpills uint64
	peakHeap   int
	rebuilds   int

	// cmps counts the full-key compares made where their number depends
	// on the input — one per link place walks, one per less() in a heap
	// sift. Nothing reads it but the complexity guard in
	// sched_prop_test.go.
	cmps uint64
}

const (
	// calInHeap in event.bucket marks residence in the heap rather than
	// a wheel bucket.
	calInHeap int32 = -2

	calMinBuckets = 64
	calMaxBuckets = 1 << 20 // 8 MiB of heads

	// Bucket width clamps: 2^4 ps keeps the horizon meaningful under
	// pathological all-same-time workloads; 2^40 ps (~1.1 s) keeps
	// day arithmetic far from overflow while covering any sane timer.
	calMinLogW  = 4
	calMaxLogW  = 40
	calInitLogW = 13 // ~8 ns buckets until the gap EWMA has data

	// calResizeEvery pops between geometry re-evaluations; rebuilds
	// are O(n), so this bounds resize overhead to O(1) amortized.
	calResizeEvery = 1024

	// calWalk is the most links place walks before it gives the event to
	// the heap: about the cost of the heap push it avoids.
	calWalk = 12
)

func newCalQ() *calQ {
	return &calQ{
		heads:   make([]*event, calMinBuckets),
		occ:     make([]uint64, calMinBuckets/64),
		mask:    calMinBuckets - 1,
		logW:    calInitLogW,
		gapEWMA: 1 << calInitLogW,
	}
}

func (c *calQ) len() int { return c.n }

// wheelLen is how many of the queued events the wheel's rings hold.
func (c *calQ) wheelLen() int { return c.n - len(c.heap) }

// advance moves the scan origin up to the current day. It never moves
// backward, and because every queued event's time is >= now, advancing
// to day(now) can never strand a queued event behind the origin.
func (c *calQ) advance(now Time) {
	if d := int64(now) >> c.logW; d > c.curDay {
		c.curDay = d
	}
}

// placeEmpty is the common push: an event whose day lies inside the
// horizon and whose bucket is empty becomes that bucket's one-event
// ring. It reports false, having touched nothing, for every other event.
// Emptiness is read off the bitmap, which stays cache-resident where the
// heads (8 bytes a bucket, 64 buckets an event at most) do not: the
// common push only stores to its head, and never waits on it.
func (c *calQ) placeEmpty(ev *event) bool {
	d := int64(ev.at) >> c.logW
	b := d & c.mask
	o, bit := &c.occ[b>>6], uint64(1)<<uint(b&63)
	if d-c.curDay > c.mask || *o&bit != 0 {
		return false
	}
	*o |= bit
	c.heads[b] = ev
	ev.next, ev.prev = ev, ev
	ev.bucket = int32(b)
	return true
}

// place puts an event anywhere: into an empty bucket through placeEmpty;
// beyond the horizon into the heap; for an occupied bucket into its
// day's ring at its less() position, walking back from the tail — or to
// the heap when the walk would pass calWalk links. Callers maintain the
// memo and the accounting. Engine.schedule calls placeEmpty in line
// first and place only when that declines; rebuild calls place. Neither
// knows how a bucket is ordered.
func (c *calQ) place(ev *event) {
	if c.placeEmpty(ev) {
		return
	}
	d := int64(ev.at) >> c.logW
	if d-c.curDay > c.mask {
		c.heapPush(ev)
		return
	}
	b := d & c.mask
	head := c.heads[b]
	after := head.prev // the tail
	for links := 0; less(ev, after); links++ {
		if after == head {
			// Before every event of the day: in a ring that is the slot
			// after the tail, under a new head.
			c.heads[b] = ev
			after = head.prev
			break
		}
		if links == calWalk {
			c.walkSpills++
			c.heapPush(ev)
			return
		}
		after = after.prev
		c.cmps++
	}
	ev.prev, ev.next = after, after.next
	after.next.prev = ev
	after.next = ev
	ev.bucket = int32(b)
}

// unlink takes a wheel event out of its ring in O(1) and leaves its
// links nil, so a recycled struct pins no neighbour for the GC.
func (c *calQ) unlink(ev *event) {
	b := ev.bucket
	if ev.next == ev {
		c.heads[b] = nil
		c.occ[b>>6] &^= 1 << uint(b&63)
	} else {
		ev.prev.next = ev.next
		ev.next.prev = ev.prev
		if c.heads[b] == ev {
			c.heads[b] = ev.next
		}
	}
	ev.next, ev.prev = nil, nil
}

// originMin is the common half of the wheel's minimum: the head of the
// first occupied bucket at or after the origin within the origin's own
// bitmap word, or nil when that stretch is empty. By the injectivity
// invariant that bucket holds exactly the wheel's earliest day, and its
// ring is sorted, so its head is found by arithmetic, not by comparing.
func (c *calQ) originMin() *event {
	start := c.curDay & c.mask
	if word := c.occ[start>>6] & (^uint64(0) << uint(start&63)); word != 0 {
		return c.heads[start&^63+int64(bits.TrailingZeros64(word))]
	}
	return nil
}

// findMin returns the wheel's minimum, or nil for an empty wheel: the
// head of the first occupied bucket at or after the origin. Past
// originMin's stretch of the origin's word the scan goes on over the
// bitmap, skipping 64 empty buckets per word. The dispatch loop calls
// originMin in line first and findMin only when that finds nothing.
func (c *calQ) findMin() *event {
	if c.wheelLen() == 0 {
		return nil
	}
	if ev := c.originMin(); ev != nil {
		return ev
	}
	start := int(c.curDay) & int(c.mask)
	w0 := start >> 6
	nw := len(c.occ)
	// Whole words after the origin's, wrapping once around the wheel…
	for i := 1; i < nw; i++ {
		w := w0 + i
		if w >= nw {
			w -= nw
		}
		if word := c.occ[w]; word != 0 {
			return c.heads[w<<6+bits.TrailingZeros64(word)]
		}
	}
	// …and finally the origin word's slots below the origin (the far
	// edge of the [curDay, curDay+N) window).
	if word := c.occ[w0] & (1<<uint(start&63) - 1); word != 0 {
		return c.heads[w0<<6+bits.TrailingZeros64(word)]
	}
	panic("sim: calendar wheel population desynchronized")
}

// remove deletes a resident event from whichever container holds it —
// an unlink from its ring or an indexed heap remove, never a search:
// this is what lets EventID.Reschedule relocate any pending event in
// place, so its success depends only on whether the event is still
// pending, never on where the queue happens to hold it (a fallback to a
// fresh schedule would consume a seq and shift every later tie-break).
func (c *calQ) remove(ev *event) {
	if c.cached == ev {
		c.cached = nil
	}
	c.n--
	if ev.bucket == calInHeap {
		c.heapRemoveAt(ev.index)
		return
	}
	c.unlink(ev)
}

// extractAll empties the queue and returns every resident event,
// unlinked, in unspecified order, for rebuild to re-place. The slice is
// the caller's: rebuild hands it back as spare,
// so a geometry that flips between two widths on every check — an
// inter-pop gap EWMA sitting on a power of two does — allocates nothing
// per flip.
func (c *calQ) extractAll() []*event {
	evs := slices.Grow(c.spare[:0], c.len())
	c.spare = nil
	for w, word := range c.occ {
		for ; word != 0; word &= word - 1 {
			b := w<<6 + bits.TrailingZeros64(word)
			ev := c.heads[b]
			c.heads[b] = nil
			ev.prev.next = nil // open the ring: the walk ends at its tail
			for ev != nil {
				next := ev.next
				ev.next, ev.prev = nil, nil
				evs = append(evs, ev)
				ev = next
			}
		}
		c.occ[w] = 0
	}
	for _, ev := range c.heap {
		ev.index = 0
		evs = append(evs, ev)
	}
	clear(c.heap)
	c.heap = c.heap[:0]
	c.cached = nil
	return evs
}

// resize re-evaluates the wheel geometry; the dispatch loop calls it
// every calResizeEvery pops. Bucket count tracks 8x the total population
// (wheel + heap) and bucket width targets half the inter-pop gap EWMA,
// so most occupied buckets hold one event. Both adjustments carry
// hysteresis (8x slack on count, 2 steps on width) so steady-state
// workloads never rebuild.
func (c *calQ) resize(now Time) {
	c.sincePop = 0
	n := c.len()
	newN := len(c.heads)
	for newN < 8*n && newN < calMaxBuckets {
		newN <<= 1
	}
	for newN > 64*n && newN > calMinBuckets {
		newN >>= 1
	}
	g := c.gapEWMA / 2
	newLogW := uint(calMinLogW)
	for g>>(newLogW+1) != 0 && newLogW < calMaxLogW {
		newLogW++
	}
	if d := int(newLogW) - int(c.logW); -2 < d && d < 2 {
		newLogW = c.logW
	}
	if newN == len(c.heads) && newLogW == c.logW {
		return
	}
	c.rebuild(newN, newLogW, now)
}

// rebuild re-creates the wheel with the given geometry and re-places
// every event. The new origin is day(now): every queued event is at
// or after now, so all of them land at or ahead of the origin and the
// injectivity invariant is re-established from scratch. A bucket count
// the queue has had before reslices the largest heads and occ arrays it
// has had (they are made together, so they fit together): extractAll
// cleared every bucket and word in use, and nothing past them has been
// written since, so a wheel that shrinks and regrows allocates nothing.
func (c *calQ) rebuild(newN int, newLogW uint, now Time) {
	c.rebuilds++
	evs := c.extractAll()
	if newN != len(c.heads) {
		if newN <= cap(c.heads) {
			c.heads = c.heads[:newN]
			c.occ = c.occ[:newN/64]
		} else {
			c.heads = make([]*event, newN)
			c.occ = make([]uint64, newN/64)
		}
		c.mask = int64(newN - 1)
	}
	c.logW = newLogW
	c.curDay = int64(now) >> newLogW
	for _, ev := range evs {
		c.place(ev)
	}
	clear(evs)
	c.spare = evs
}

// ---- 4-ary min-heap (full-key order, index-tracked) ----
//
// Each event's index field tracks its slot in c.heap.

func (c *calQ) heapPush(ev *event) {
	ev.bucket = calInHeap
	c.heap = append(c.heap, ev)
	c.heapUp(len(c.heap) - 1)
	if n := len(c.heap); n > c.peakHeap {
		c.peakHeap = n
	}
}

func (c *calQ) heapUp(i int) {
	h := c.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		c.cmps++
		if !less(ev, p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

func (c *calQ) heapDown(i int) {
	h := c.heap
	ev := h[i]
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if less(h[j], h[best]) {
				best = j
			}
		}
		c.cmps += uint64(last - first)
		if !less(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].index = i
		i = best
	}
	h[i] = ev
	ev.index = i
}

// heapRemoveAt deletes the event at heap slot i and leaves its index 0,
// as in a ring, for wherever it goes next.
func (c *calQ) heapRemoveAt(i int) {
	h := c.heap
	h[i].index = 0
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	c.heap = h[:n]
	if i < n {
		moved := h[i]
		c.heapDown(i)
		if moved.index == i {
			c.heapUp(i)
		}
	}
}
