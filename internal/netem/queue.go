// Package netem implements the simulated network elements: links with
// serialization and propagation delay, drop-tail data queues with optional
// ECN / RCP / phantom-queue features, the ExpressPass credit queue with
// its token-bucket rate limiter, switches with symmetric-hash ECMP, and
// hosts with a credit-processing delay model.
package netem

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// queueStats tracks occupancy and drop statistics for one queue. Average
// occupancy is time-weighted (integral of bytes over time / elapsed).
type queueStats struct {
	Drops     uint64
	DropBytes unit.Bytes
	Enqueued  uint64
	MaxBytes  unit.Bytes
	MaxPkts   int

	integral   float64 // byte·picoseconds
	lastChange sim.Time
	openedAt   sim.Time
}

func (s *queueStats) account(now sim.Time, curBytes unit.Bytes) {
	if now > s.lastChange {
		s.integral += float64(curBytes) * float64(now-s.lastChange)
		s.lastChange = now
	}
}

// avgBytes returns the time-weighted average occupancy up to now. It
// reads the open interval without closing it: reading a port's
// statistics changes nothing a later read or the run depends on.
func (s *queueStats) avgBytes(now sim.Time, curBytes unit.Bytes) float64 {
	if now <= s.openedAt {
		return 0
	}
	integral := s.integral
	if now > s.lastChange {
		integral += float64(curBytes) * float64(now-s.lastChange)
	}
	return integral / float64(now-s.openedAt)
}

// resetWindow restarts the averaging window at now.
func (s *queueStats) resetWindow(now sim.Time) {
	s.integral = 0
	s.lastChange = now
	s.openedAt = now
}

// pktRing is the FIFO both queue classes store their packets in: a
// circular buffer whose length is zero or a power of two. It starts
// empty, doubles when full (first to ringMinSlots) and never shrinks or
// compacts, so a ring's size is the peak occupancy its queue reports
// anyway (queueStats.MaxPkts, rounded up), not what has passed through.
// The zero value is ready to use: ports embed their queues by value.
//
// head and n are uint32 on purpose: with two rings in it, Port must not
// outgrow its allocator size class (TestPortStays576Bytes).
type pktRing struct {
	buf  []*packet.Packet
	head uint32 // physical index of the oldest packet
	n    uint32 // packets held
}

const ringMinSlots = 4

func (r *pktRing) len() int { return int(r.n) }

// slot maps the i-th oldest packet to its physical index. Only valid on
// a ring that has grown (len(buf) > 0), which any ring holding a packet
// has.
func (r *pktRing) slot(i uint32) uint32 { return (r.head + i) & uint32(len(r.buf)-1) }

// at returns the i-th oldest packet, 0 ≤ i < len.
func (r *pktRing) at(i int) *packet.Packet { return r.buf[r.slot(uint32(i))] }

// set replaces the i-th oldest packet, 0 ≤ i < len.
func (r *pktRing) set(i int, p *packet.Packet) { r.buf[r.slot(uint32(i))] = p }

func (r *pktRing) push(p *packet.Packet) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = p
	r.n++
}

// pop removes and returns the oldest packet, clearing its slot so the
// ring never pins a packet the pool has recycled. The ring must not be
// empty.
func (r *pktRing) pop() *packet.Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = r.slot(1)
	r.n--
	return p
}

// grow doubles a full ring, unwrapping it so the oldest packet lands in
// slot 0. It runs a handful of times per port per run. go:noinline, not
// a split fast path: left to the compiler, grow (cost 39) is inlined
// into push (74 of the budget's 80) and the pair into both queues'
// push, so whether an enqueue carries the make and the two copies in
// its body hangs on six units of budget — one more statement here and
// push silently becomes a call that still contains them. Pinned out,
// push is always a short call around the store (under 1 ns per enqueue
// dearer than the all-inlined form in a push/pop micro, nothing any run
// shows) and netem's TestHotPathInlining can hold the shape: grow never
// inlined, pop, at and the emptiness tests always.
//
//go:noinline
func (r *pktRing) grow() {
	grown := make([]*packet.Packet, max(ringMinSlots, 2*len(r.buf)))
	k := copy(grown, r.buf[r.head:])
	copy(grown[k:], r.buf[:r.head])
	r.buf, r.head = grown, 0
}

// fifo is what both queue classes share: the ring, its byte count and
// the queue's statistics, with the accounting of a plain enqueue and
// dequeue. Admission — the byte or packet budget, the credit victim —
// is each class's own.
type fifo struct {
	ring  pktRing
	bytes unit.Bytes
	stats queueStats
}

func (q *fifo) len() int             { return q.ring.len() }
func (q *fifo) empty() bool          { return q.ring.n == 0 }
func (q *fifo) curBytes() unit.Bytes { return q.bytes }

// add appends p, closing the occupancy interval at the old byte count
// and raising the peaks.
func (q *fifo) add(now sim.Time, p *packet.Packet) {
	q.stats.account(now, q.bytes)
	q.ring.push(p)
	q.bytes += p.Wire
	q.stats.Enqueued++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	if n := q.len(); n > q.stats.MaxPkts {
		q.stats.MaxPkts = n
	}
}

func (q *fifo) pop(now sim.Time) *packet.Packet {
	if q.empty() {
		return nil
	}
	q.stats.account(now, q.bytes)
	p := q.ring.pop()
	q.bytes -= p.Wire
	return p
}

// dataQueue is a byte-capacity drop-tail FIFO for the data class.
type dataQueue struct {
	fifo
	cap unit.Bytes
}

// push appends p if it fits; returns false (drop) otherwise.
func (q *dataQueue) push(now sim.Time, p *packet.Packet) bool {
	if q.cap > 0 && q.bytes+p.Wire > q.cap {
		q.stats.Drops++
		q.stats.DropBytes += p.Wire
		return false
	}
	q.add(now, p)
	return true
}

// creditQueue is a tiny packet-count-capacity FIFO for one credit class
// (buffer carving per §3.1: a fixed budget of 4–8 credit packets).
//
// On overflow the victim is chosen uniformly at random among the queued
// credits and the arrival. The paper achieves the same uniform-random
// credit dropping on commodity drop-tail queues by randomizing credit
// sizes (84–92 B), which perturbs the metering schedule; with the
// simulator's exact nominal metering that perturbation is too weak to
// break phase lock between a full-rate flow and the drain clock, so the
// randomness is applied at the drop decision itself — the equivalence is
// that drops land uniformly across interleaved credit streams (§3.1
// "Ensuring fair credit drop").
type creditQueue struct {
	fifo
	cap int
}

// push enqueues p, applying random-victim drop when full (or plain
// drop-tail when rng is nil). It returns the credit dropped, for the
// caller to recycle: p, or the queued credit p displaced; nil if none.
func (q *creditQueue) push(now sim.Time, p *packet.Packet, rng *sim.Rand) (dropped *packet.Packet) {
	if q.len() < q.cap {
		q.add(now, p)
		return nil
	}
	q.stats.Drops++
	victim := q.len() // drop-tail default: the arrival is the victim
	if rng != nil {
		victim = rng.Intn(q.len() + 1)
	}
	if victim == q.len() {
		q.stats.DropBytes += p.Wire
		return p
	}
	// Credit sizes differ (84–92 B), so the swap moves the byte
	// count: close the interval at the old count first.
	q.stats.account(now, q.bytes)
	old := q.ring.at(victim)
	q.stats.DropBytes += old.Wire
	q.bytes += p.Wire - old.Wire
	q.ring.set(victim, p)
	q.stats.Enqueued++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	return old
}

// tokenBucket meters the credit class to a fixed fraction of link
// capacity (maximum-bandwidth metering in §3.1). Tokens are bytes.
type tokenBucket struct {
	rate   unit.Rate  // token accrual in bits/sec
	burst  unit.Bytes // bucket capacity
	tokens float64    // current bytes
	last   sim.Time
}

func newTokenBucket(rate unit.Rate, burst unit.Bytes) tokenBucket {
	return tokenBucket{rate: rate, burst: burst, tokens: float64(burst)}
}

func (b *tokenBucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	b.tokens += float64(now-b.last) * float64(b.rate) / 8 / float64(sim.Second)
	if b.tokens > float64(b.burst) {
		b.tokens = float64(b.burst)
	}
	b.last = now
}

// have reports whether n bytes of tokens are available at now.
func (b *tokenBucket) have(now sim.Time, n unit.Bytes) bool {
	b.refill(now)
	return b.tokens >= float64(n)
}

// take consumes n bytes of tokens (caller must have checked have).
func (b *tokenBucket) take(n unit.Bytes) { b.tokens -= float64(n) }

// readyAt returns the earliest time n bytes of tokens will be available.
func (b *tokenBucket) readyAt(now sim.Time, n unit.Bytes) sim.Time {
	b.refill(now)
	deficit := float64(n) - b.tokens
	if deficit <= 0 {
		return now
	}
	ps := deficit * 8 * float64(sim.Second) / float64(b.rate)
	return now + sim.Duration(ps) + 1
}
