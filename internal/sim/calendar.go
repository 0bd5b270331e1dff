package sim

import (
	"math/bits"
	"slices"
)

// Calendar-queue event scheduler (Brown 1988, as used by ns-3's
// calendar scheduler and kernel timer wheels): the engine's one
// pending-event queue. The structure splits pending events by horizon:
//
//   - a power-of-two wheel of "day" buckets covers the near future.
//     A day is ev.at >> logW (logW = log2 of the bucket width in
//     picoseconds); the day's bucket is day & mask. Push appends to a
//     bucket slice and pop scans forward from the current day — both
//     O(1) amortized for the short-horizon events (link propagation,
//     pacing ticks, credit slots) that dominate the simulator.
//   - a 4-ary min-heap holds overflow: events whose day lies beyond
//     the wheel's span (RTOs, idle watchdogs, end-of-run timers).
//     They migrate into the wheel in amortized O(log n) batches once
//     the clock brings their day within the horizon.
//
// Determinism: pop order must be exactly (time, dom, seq) by the less()
// comparator — what a sort of the pending set would give, and what the
// ordered-slice reference model in sched_prop_test.go checks. Two
// properties make that cheap to guarantee:
//
//   - every queued event satisfies ev.at >= engine.now (alloc and
//     Reschedule reject the past), and curDay only ever advances to
//     day(now), so wheel days always lie in [curDay, curDay+N). Within
//     that window day -> bucket is injective, meaning the first
//     non-empty bucket at or after curDay holds exactly the events of
//     the earliest pending day — no per-event day check needed.
//   - the full-key minimum of that one bucket is found by its length.
//     A bucket of at most calCrowded events is unordered and scanned:
//     width adapts to the observed inter-event spacing, so this is the
//     common case and the scan is a few compares. A bucket LONGER than
//     calCrowded is an index-tracked 4-ary min-heap in less() order and
//     its minimum is slot 0. Overflow's heap root is compared with the
//     wheel's candidate before either is returned.
//
// The crowded-bucket invariant exists because width adaptation cannot
// separate equal timestamps: a model that arms one timer per port or
// per flow on a shared instant (the metrics sampler, DCQCN timers,
// synchronised RTOs; RCP's rate recomputation did, until netem put
// every meter of a network on one clock) puts hundreds to thousands of
// events on the same picosecond, hence in the same bucket at any
// width. Every pop invalidates the memoized minimum, so draining k such
// events by rescanning costs k²/2 compares; as a heap it costs k·log k.
// Length is the only flag: the append that takes a bucket to
// calCrowded+1 events heapifies it, later appends sift up, removal from
// a crowded bucket is a heap remove-at, and a heap that has shrunk to
// calCrowded is already a valid unordered bucket (the scan reads every
// slot). rebuild, overflow migration and ShardGroup.Activate re-place
// through the same insert, so they re-establish the invariant without
// knowing of it. A bucket keeps the capacity its largest burst grew it
// to; nothing shrinks it.
//
// The adaptive geometry is resized at most once per calResizeEvery
// pops, with hysteresis, by rebuilding: bucket count tracks the queue
// population and bucket width tracks an EWMA of inter-pop gaps, so a
// Table 3-scale run (~64k pending, sub-ns gaps) and a sparse teardown
// tail pick different geometries without tuning flags.
type calQ struct {
	buckets [][]*event
	occ     []uint64 // occupancy bitmap, one bit per bucket
	mask    int64    // len(buckets)-1; bucket count is a power of two
	logW    uint     // log2(bucket width in Time units)
	curDay  int64    // scan origin; advanced monotonically to day(now)
	wheelN  int      // events resident in the wheel
	over    []*event // overflow 4-ary min-heap, full-key order
	cached  *event   // memoized queue minimum, nil when unknown
	spare   []*event // rebuild's extraction buffer, kept between rebuilds

	// Adaptive-width state: EWMA of nonzero inter-pop gaps (the
	// zero-gap bursts of same-time events carry no width information)
	// and a pop countdown that rate-limits resize checks.
	gapEWMA  int64
	lastPop  Time
	havePop  bool
	sincePop int

	// Crowded-path instrumentation, written only inside the crowded
	// branches: the longest bucket ever built past calCrowded (0 when
	// none was) and the pops served from a crowded bucket's root.
	peakBucket  int
	crowdedPops uint64
}

const (
	// calInOverflow in event.bucket marks residence in the overflow
	// heap rather than a wheel bucket.
	calInOverflow int32 = -2

	calMinBuckets = 64
	calMaxBuckets = 1 << 17

	// Bucket width clamps: 2^6 ps keeps the horizon meaningful under
	// pathological all-same-time workloads; 2^40 ps (~1.1 s) keeps
	// day arithmetic far from overflow while covering any sane timer.
	calMinLogW  = 6
	calMaxLogW  = 40
	calInitLogW = 13 // ~8 ns buckets until the gap EWMA has data

	// calResizeEvery pops between geometry re-evaluations; rebuilds
	// are O(n), so this bounds resize overhead to O(1) amortized.
	calResizeEvery = 1024

	// calCrowded is the longest bucket kept unordered; a longer one is
	// a heap (see the header). At or below it a linear scan of one or
	// two cache lines of pointers beats the sifts.
	calCrowded = 12
)

func newCalQ() *calQ {
	return &calQ{
		buckets: make([][]*event, calMinBuckets),
		occ:     make([]uint64, calMinBuckets/64),
		mask:    calMinBuckets - 1,
		logW:    calInitLogW,
		gapEWMA: 1 << calInitLogW,
	}
}

func (c *calQ) len() int { return c.wheelN + len(c.over) }

// advance moves the scan origin up to the current day. It never moves
// backward, and because every queued event's time is >= now, advancing
// to day(now) can never strand a queued event behind the origin.
func (c *calQ) advance(now Time) {
	if d := int64(now) >> c.logW; d > c.curDay {
		c.curDay = d
	}
}

// place routes an event to its container by horizon. Callers maintain
// the cache and accounting. wheelInsert leaves ev.index at the bucket's
// previous length, so index >= calCrowded says the bucket is now
// crowded without reloading it.
func (c *calQ) place(ev *event) {
	d := int64(ev.at) >> c.logW
	if d-c.curDay >= int64(len(c.buckets)) {
		c.overPush(ev)
		return
	}
	c.wheelInsert(ev, d)
	if ev.index >= calCrowded {
		c.crowd(ev.bucket)
	}
}

func (c *calQ) wheelInsert(ev *event, d int64) {
	b := int32(d & c.mask)
	ev.bucket = b
	ev.index = len(c.buckets[b])
	c.buckets[b] = append(c.buckets[b], ev)
	c.occ[b>>6] |= 1 << uint(b&63)
	c.wheelN++
}

// crowd restores the crowded-bucket invariant after wheelInsert took
// bucket b past calCrowded: the append that crosses the threshold finds
// an unordered bucket and heapifies it, every later one finds a heap
// and sifts the new tail up. It is kept out of wheelInsert so the
// common path stays inlinable (see TestHotPathInlining).
func (c *calQ) crowd(b int32) {
	h := c.buckets[b]
	n := len(h)
	if n == calCrowded+1 {
		for i := (n - 2) >> 2; i >= 0; i-- {
			heapDown(h, i)
		}
	} else {
		heapUp(h, n-1)
	}
	if n > c.peakBucket {
		c.peakBucket = n
	}
}

func (c *calQ) push(ev *event, now Time) {
	c.advance(now)
	c.place(ev)
	if c.cached != nil && less(ev, c.cached) {
		c.cached = ev
	}
}

// peek returns the (time, dom, seq)-minimum event without removing it,
// or nil when the queue is empty. The result is memoized until that
// event is removed, so the wheel scan runs once per distinct minimum.
func (c *calQ) peek(now Time) *event {
	if c.cached != nil {
		return c.cached
	}
	return c.findMin(now)
}

// findMin is peek's miss path: it locates the minimum and memoizes it.
func (c *calQ) findMin(now Time) *event {
	c.advance(now)
	// Migrate overflow events whose day has come inside the horizon.
	// The overflow heap is full-key ordered, so the first out-of-range
	// root proves the rest are out of range too; each event migrates
	// at most once (its day is fixed, curDay only grows).
	n := int64(len(c.buckets))
	for len(c.over) > 0 {
		d := int64(c.over[0].at) >> c.logW
		if d-c.curDay >= n {
			break
		}
		ev := c.over[0]
		c.over = heapRemoveAt(c.over, 0)
		c.wheelInsert(ev, d)
		if ev.index >= calCrowded {
			c.crowd(ev.bucket)
		}
	}
	best := c.wheelMin()
	if len(c.over) > 0 && (best == nil || less(c.over[0], best)) {
		// A far-future minimum is served straight from the overflow
		// heap — curDay must NOT jump to it, because the engine may
		// merely inspect this event (RunUntil past-deadline check) and
		// then push nearer events, which would land behind a jumped
		// origin.
		best = c.over[0]
	}
	c.cached = best
	return best
}

// wheelMin scans forward from curDay for the first non-empty bucket
// and returns its full-key minimum — by the injectivity invariant,
// that bucket holds exactly the earliest pending day's events. The
// scan walks the occupancy bitmap, not the bucket slices, skipping 64
// empty buckets per word: the peek cache is invalidated on every pop
// of the minimum, so this re-scan is the steady-state path and was the
// top CPU consumer in fig18 profiles before the bitmap (see
// EXPERIMENTS.md).
func (c *calQ) wheelMin() *event {
	if c.wheelN == 0 {
		return nil
	}
	start := int(c.curDay) & int(c.mask)
	w0 := start >> 6
	off := uint(start & 63)
	nw := len(c.occ)
	// Slots at or after the origin in the origin's own word…
	if word := c.occ[w0] & (^uint64(0) << off); word != 0 {
		return c.bucketMin(w0<<6 + bits.TrailingZeros64(word))
	}
	// …then whole words, wrapping once around the wheel…
	for i := 1; i < nw; i++ {
		w := w0 + i
		if w >= nw {
			w -= nw
		}
		if word := c.occ[w]; word != 0 {
			return c.bucketMin(w<<6 + bits.TrailingZeros64(word))
		}
	}
	// …and finally the origin word's slots below the origin (the far
	// edge of the [curDay, curDay+N) window).
	if word := c.occ[w0] & (1<<off - 1); word != 0 {
		return c.bucketMin(w0<<6 + bits.TrailingZeros64(word))
	}
	panic("sim: calendar wheel population desynchronized")
}

// bucketMin returns the full-key minimum of a non-empty bucket: the
// root when the bucket is crowded (a heap), else the result of a scan.
func (c *calQ) bucketMin(slot int) *event {
	b := c.buckets[slot]
	best := b[0]
	if len(b) > calCrowded {
		return best
	}
	for _, ev := range b[1:] {
		if less(ev, best) {
			best = ev
		}
	}
	return best
}

// pop removes and returns the minimum event, or nil when empty, and
// feeds the adaptive-geometry statistics.
func (c *calQ) pop(now Time) *event {
	ev := c.peek(now)
	if ev == nil {
		return nil
	}
	if c.remove(ev) {
		c.crowdedPops++
	}
	if c.havePop {
		if gap := int64(ev.at - c.lastPop); gap > 0 {
			c.gapEWMA += (gap - c.gapEWMA) >> 3
		}
	}
	c.lastPop = ev.at
	c.havePop = true
	if c.sincePop++; c.sincePop >= calResizeEvery {
		c.resize(now)
	}
	return ev
}

// remove deletes a resident event from whichever container holds it —
// indexed heap-remove from overflow or from a crowded wheel bucket,
// swap-remove from an uncrowded one — and reports whether it came out
// of a crowded bucket. O(1) or O(log n), never a search: this is what
// lets EventID.Reschedule relocate any pending event in place, so its
// success depends only on whether the event is still pending, never on
// where the queue happens to hold it (a fallback to a fresh schedule
// would consume a seq and shift every later tie-break).
func (c *calQ) remove(ev *event) (crowded bool) {
	if c.cached == ev {
		c.cached = nil
	}
	if ev.bucket == calInOverflow {
		c.over = heapRemoveAt(c.over, ev.index)
		return false
	}
	b := ev.bucket
	s := c.buckets[b]
	c.wheelN--
	if len(s) > calCrowded {
		c.buckets[b] = heapRemoveAt(s, ev.index)
		return true
	}
	i := ev.index
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		s[i].index = i
	}
	s[last] = nil
	c.buckets[b] = s[:last]
	if last == 0 {
		c.occ[b>>6] &^= 1 << uint(b&63)
	}
	ev.index = -1
	return false
}

// extractAll empties the queue and returns every resident event in
// unspecified order (used by ShardGroup.Activate and rebuild). The
// slice is the caller's: rebuild hands it back as spare, so a geometry
// that flips between two widths on every check — an inter-pop gap EWMA
// sitting on a power of two does — allocates nothing per flip.
func (c *calQ) extractAll() []*event {
	evs := slices.Grow(c.spare[:0], c.len())
	c.spare = nil
	for i, b := range c.buckets {
		evs = append(evs, b...)
		for j := range b {
			b[j] = nil
		}
		c.buckets[i] = b[:0]
	}
	evs = append(evs, c.over...)
	for i := range c.over {
		c.over[i] = nil
	}
	c.over = c.over[:0]
	for i := range c.occ {
		c.occ[i] = 0
	}
	c.wheelN = 0
	c.cached = nil
	return evs
}

// resize re-evaluates the wheel geometry; pop calls it every
// calResizeEvery pops. Bucket count tracks the total population (wheel
// + overflow) and bucket width targets ~4x the inter-pop gap EWMA, so a
// handful of events share each active bucket. Both adjustments carry
// hysteresis (4x slack on count, 2 steps on width) so steady-state
// workloads never rebuild.
func (c *calQ) resize(now Time) {
	c.sincePop = 0
	n := c.len()
	newN := len(c.buckets)
	for newN < n && newN < calMaxBuckets {
		newN <<= 1
	}
	for newN > 8*n && newN > calMinBuckets {
		newN >>= 1
	}
	g := c.gapEWMA * 4
	newLogW := uint(calMinLogW)
	for g>>(newLogW+1) != 0 && newLogW < calMaxLogW {
		newLogW++
	}
	dl := int(newLogW) - int(c.logW)
	if dl < 0 {
		dl = -dl
	}
	if dl < 2 {
		newLogW = c.logW
	}
	if newN == len(c.buckets) && newLogW == c.logW {
		return
	}
	c.rebuild(newN, newLogW, now)
}

// rebuild re-creates the wheel with the given geometry and re-places
// every event. The new origin is day(now): every queued event is at
// or after now, so all of them land at or ahead of the origin and the
// injectivity invariant is re-established from scratch.
func (c *calQ) rebuild(newN int, newLogW uint, now Time) {
	evs := c.extractAll()
	if newN != len(c.buckets) {
		c.buckets = make([][]*event, newN)
		c.occ = make([]uint64, newN/64)
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
// One implementation over a bare slice, shared by the overflow heap and
// every crowded wheel bucket. Each event's index field tracks its slot.

func heapUp(h []*event, i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
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

func heapDown(h []*event, i int) {
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

func (c *calQ) overPush(ev *event) {
	ev.bucket = calInOverflow
	c.over = append(c.over, ev)
	heapUp(c.over, len(c.over)-1)
}

// heapRemoveAt deletes the event at heap slot i, marks it unqueued
// (index -1) and returns the shortened heap.
func heapRemoveAt(h []*event, i int) []*event {
	h[i].index = -1
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	h = h[:n]
	if i < n {
		moved := h[i]
		heapDown(h, i)
		if moved.index == i {
			heapUp(h, i)
		}
	}
	return h
}
