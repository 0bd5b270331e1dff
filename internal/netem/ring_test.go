package netem

import (
	"testing"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Differential test: pktRing ≡ the slice-and-compact FIFO it replaced.
// refQueue below is that FIFO, kept test-only: append on push, advance
// head on pop, copy down once the dead prefix dominates. A data queue
// and two credit queues (the paper's 8-credit budget, and 100 so the
// ring grows through 4, 8, … 128 slots with victims landing on wrapped
// rings) are each driven beside their reference through 120,000 steps
// of one seeded schedule: push, pop, the flush Port.dropQueued performs,
// the reset Port.ResetStats performs, with the push share swinging
// between bursts and drains so the ring fills, grows, empties and wraps
// many times. After every step the popped packet (by sequence number
// and size — each side owns its packets), len, bytes and the whole
// queueStats, float integral included, must be equal; at the end the
// two victim RNGs must be at the same draw.
//
// refQueue carries the same two-line accounting fix as creditQueue.push
// (account before a victim swap, raise MaxBytes after it), so victim
// steps compare too; TestCreditVictimSwapAccountsBytes is what pins the
// fix itself.
//
// Mutations of queue.go this was checked to fail under:
//
//   - slot masks with len(buf) instead of len(buf)-1 (mask off by one):
//     every queue pops its second packet first, step 5.
//   - creditQueue.push's victim branch reads and writes buf[victim]
//     instead of at(victim)/set(victim) (physical, not logical):
//     "credit8" and "credit100" part on bytes at the first victim that
//     lands on a ring whose head is not slot 0 (steps 1509, 1654).
//   - grow copies buf as it lies (copy(grown, r.buf), head kept) instead
//     of unwrapping: "data" pops an empty slot after the first growth
//     of a wrapped ring.
//   - pop advances head without the mask: index out of range at the
//     first wrap.
//   - pop does not clear its slot: the differential cannot see it;
//     TestRingDropsReferences fails.

// refQueue is the implementation dataQueue and creditQueue shared (in
// two copies) before the ring; compactAt was 64 for data, 16 for credits.
type refQueue struct {
	pkts      []*packet.Packet
	head      int
	compactAt int
	byteCap   unit.Bytes // data class
	pktCap    int        // credit class
	bytes     unit.Bytes
	stats     queueStats
	pool      *packet.Pool // where a displaced credit goes
}

func (q *refQueue) len() int { return len(q.pkts) - q.head }

func (q *refQueue) pushData(now sim.Time, p *packet.Packet) bool {
	if q.byteCap > 0 && q.bytes+p.Wire > q.byteCap {
		q.stats.Drops++
		q.stats.DropBytes += p.Wire
		return false
	}
	q.enqueue(now, p)
	return true
}

func (q *refQueue) pushCredit(now sim.Time, p *packet.Packet, rng *sim.Rand) bool {
	if q.pktCap > 0 && q.len() >= q.pktCap {
		q.stats.Drops++
		victim := q.len()
		if rng != nil {
			victim = rng.Intn(q.len() + 1)
		}
		if victim == q.len() {
			q.stats.DropBytes += p.Wire
			return false
		}
		q.stats.account(now, q.bytes) // the fix
		old := q.pkts[q.head+victim]
		q.stats.DropBytes += old.Wire
		q.bytes += p.Wire - old.Wire
		q.pkts[q.head+victim] = p
		q.pool.Put(old)
		q.stats.Enqueued++
		if q.bytes > q.stats.MaxBytes { // the fix
			q.stats.MaxBytes = q.bytes
		}
		return true
	}
	q.enqueue(now, p)
	return true
}

func (q *refQueue) enqueue(now sim.Time, p *packet.Packet) {
	q.stats.account(now, q.bytes)
	q.pkts = append(q.pkts, p)
	q.bytes += p.Wire
	q.stats.Enqueued++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	if n := q.len(); n > q.stats.MaxPkts {
		q.stats.MaxPkts = n
	}
}

func (q *refQueue) pop(now sim.Time) *packet.Packet {
	if q.len() == 0 {
		return nil
	}
	q.stats.account(now, q.bytes)
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= p.Wire
	if q.head > q.compactAt && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	return p
}

// ringSide is the queue under test behind the operations the schedule
// drives; exactly one of data/credit is set.
type ringSide struct {
	data   *dataQueue
	credit *creditQueue
}

// push reports whether p was queued, recycling into pl any queued
// credit p displaced.
func (s ringSide) push(now sim.Time, p *packet.Packet, rng *sim.Rand, pl *packet.Pool) bool {
	if s.data != nil {
		return s.data.push(now, p)
	}
	d := s.credit.push(now, p, rng)
	if d != nil && d != p {
		pl.Put(d)
	}
	return d != p
}

func (s ringSide) pop(now sim.Time) *packet.Packet {
	if s.data != nil {
		return s.data.pop(now)
	}
	return s.credit.pop(now)
}

func (s ringSide) state() (int, unit.Bytes, *queueStats, *pktRing) {
	if s.data != nil {
		return s.data.len(), s.data.bytes, &s.data.stats, &s.data.ring
	}
	return s.credit.len(), s.credit.bytes, &s.credit.stats, &s.credit.ring
}

func TestRingMatchesSliceQueue(t *testing.T) {
	const steps = 120000
	cases := []struct {
		name string
		side ringSide
		ref  *refQueue
	}{
		{"data", ringSide{data: &dataQueue{cap: 200e3}}, &refQueue{compactAt: 64, byteCap: 200e3}},
		{"credit8", ringSide{credit: &creditQueue{cap: 8}}, &refQueue{compactAt: 16, pktCap: 8}},
		{"credit100", ringSide{credit: &creditQueue{cap: 100}}, &refQueue{compactAt: 16, pktCap: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var pl packet.Pool
			side, ref := tc.side, tc.ref
			ref.pool = &pl
			isData := side.data != nil
			sched := sim.NewRand(23)                     // the schedule
			vicA, vicB := sim.NewRand(5), sim.NewRand(5) // victim draws, one stream a side
			mk := func(seq int64, wire unit.Bytes) *packet.Packet {
				p := pl.Get()
				p.Seq, p.Wire = seq, wire
				if !isData {
					p.Kind = packet.Credit
				}
				return p
			}
			same := func(step int, what string, a, b *packet.Packet) {
				t.Helper()
				switch {
				case a == nil && b == nil:
				case a == nil || b == nil:
					t.Fatalf("step %d %s: ring popped %v, reference %v", step, what, a, b)
				case a.Seq != b.Seq || a.Wire != b.Wire:
					t.Fatalf("step %d %s: ring popped seq %d (%v), reference seq %d (%v)",
						step, what, a.Seq, a.Wire, b.Seq, b.Wire)
				}
				if a != nil {
					pl.Put(a)
					pl.Put(b)
				}
			}
			var now sim.Time
			var seq int64
			var grown, wraps, victims, flushes, peak int
			pushShare := 60
			for step := 0; step < steps; step++ {
				now += sim.Time(sched.Intn(3)) * sim.Nanosecond // ties included
				if step%1500 == 0 {
					// Swing between filling (85% pushes) and draining (25%).
					pushShare = 25 + 60*((step/1500)%2)
				}
				_, _, _, ring := side.state()
				slotsBefore, headBefore := len(ring.buf), ring.head
				switch op := sched.Intn(1000); {
				case op < 10*pushShare:
					seq++
					var wire unit.Bytes
					if isData {
						wire = unit.Bytes(64 + sched.Intn(1475))
					} else {
						wire = unit.MinFrame + unit.Bytes(sched.Intn(9)) // 84–92 B
					}
					a, b := mk(seq, wire), mk(seq, wire)
					dropsBefore := ref.stats.Drops
					okA := side.push(now, a, vicA, &pl)
					var okB bool
					if isData {
						okB = ref.pushData(now, b)
					} else {
						okB = ref.pushCredit(now, b, vicB)
					}
					if okA != okB {
						t.Fatalf("step %d: ring push accepted=%v, reference %v", step, okA, okB)
					}
					if !okA {
						pl.Put(a)
						pl.Put(b)
					} else if ref.stats.Drops > dropsBefore {
						victims++
					}
				case op < 997:
					same(step, "pop", side.pop(now), ref.pop(now))
				case op < 998:
					// Port.dropQueued: pop until empty.
					flushes++
					for ref.len() > 0 {
						same(step, "flush", side.pop(now), ref.pop(now))
					}
					same(step, "flush end", side.pop(now), ref.pop(now))
				default:
					// Port.ResetStats.
					_, _, st, _ := side.state()
					*st = queueStats{}
					st.resetWindow(now)
					ref.stats = queueStats{}
					ref.stats.resetWindow(now)
				}
				n, bytes, st, ring := side.state()
				if n != ref.len() || bytes != ref.bytes {
					t.Fatalf("step %d: ring holds %d pkts / %v, reference %d / %v", step, n, bytes, ref.len(), ref.bytes)
				}
				if *st != ref.stats {
					t.Fatalf("step %d: stats differ\n ring %+v\n ref  %+v", step, *st, ref.stats)
				}
				if s := len(ring.buf); s&(s-1) != 0 || n > s {
					t.Fatalf("step %d: %d packets in a ring of %d slots", step, n, s)
				}
				peak = max(peak, n)
				if len(ring.buf) != slotsBefore {
					grown++
				} else if ring.head < headBefore {
					wraps++
				}
			}
			if a, b := vicA.Uint64(), vicB.Uint64(); a != b {
				t.Errorf("victim RNGs ended at different draws")
			}
			// The schedule must have exercised what the header claims.
			_, _, _, ring := side.state()
			wantSlots := ringMinSlots
			for wantSlots < peak {
				wantSlots *= 2
			}
			if len(ring.buf) != wantSlots {
				t.Errorf("ring ended with %d slots after a peak of %d packets, want %d", len(ring.buf), peak, wantSlots)
			}
			if grown < 2 || wraps < 100 || flushes < 50 || ref.stats.Drops == 0 {
				t.Errorf("schedule too tame: %d growths, %d wraps, %d flushes, %d drops since the last reset",
					grown, wraps, flushes, ref.stats.Drops)
			}
			if !isData && victims < 1000 {
				t.Errorf("only %d victim replacements", victims)
			}
			t.Logf("%d slots for a peak of %d packets, %d wraps, %d victim replacements, %d flushes",
				len(ring.buf), peak, wraps, victims, flushes)
			for ref.len() > 0 {
				same(steps, "drain", side.pop(now), ref.pop(now))
			}
			if live := pl.Live(); live != 0 {
				t.Errorf("%d packets leaked", live)
			}
		})
	}
}

// TestRingDropsReferences: a drained ring holds no packet pointer. The
// slice queue's copy-compaction left the moved packets' old slots set
// (pkts[n:len] of the backing array), pinning pooled packets the
// simulation had already recycled.
func TestRingDropsReferences(t *testing.T) {
	t.Parallel()
	var pl packet.Pool
	var q dataQueue
	rng := sim.NewRand(3)
	held := 0
	for i := 0; i < 5000; i++ {
		if held == 0 || (held < 200 && rng.Intn(100) < 55) {
			q.push(sim.Time(i), mkData(&pl, 1538))
			held++
		} else {
			pl.Put(q.pop(sim.Time(i)))
			held--
		}
	}
	for !q.empty() {
		pl.Put(q.pop(5000))
	}
	if len(q.ring.buf) < 16 {
		t.Fatalf("ring never grew (%d slots): the test exercised nothing", len(q.ring.buf))
	}
	for i, p := range q.ring.buf {
		if p != nil {
			t.Fatalf("slot %d of %d still holds %v after the drain", i, len(q.ring.buf), p)
		}
	}
	if q.pop(5001) != nil || q.len() != 0 || q.bytes != 0 {
		t.Errorf("drained queue: len %d, %v bytes", q.len(), q.bytes)
	}
}

// TestCreditVictimSwapAccountsBytes: replacing a queued 84 B credit by
// a 92 B arrival changes the queue's byte count, so it must close the
// time-weighted interval at the old count and may raise the peak. Before
// the fix the swap did neither: the average below read 680 (the new
// count integrated over the whole 2 µs) and the peak 672.
func TestCreditVictimSwapAccountsBytes(t *testing.T) {
	t.Parallel()
	var pl packet.Pool
	q := &creditQueue{cap: 8}
	q.stats.resetWindow(0)
	for i := 0; i < 8; i++ {
		q.push(0, mkCredit(&pl), nil) // 8 × 84 B = 672 B at t = 0
	}
	// A seed whose first draw picks a queued credit, not the arrival.
	var rng *sim.Rand
	for seed := uint64(1); ; seed++ {
		if sim.NewRand(seed).Intn(9) != 8 {
			rng = sim.NewRand(seed)
			break
		}
	}
	big := mkCredit(&pl)
	big.Wire = unit.MinFrame + 8
	victim := q.push(sim.Microsecond, big, rng)
	if victim == nil || victim == big {
		t.Fatal("the arrival was the victim: the seed search is broken")
	}
	pl.Put(victim)
	if q.bytes != 680 || q.len() != 8 {
		t.Fatalf("after the swap: %d credits, %v bytes, want 8 / 680", q.len(), q.bytes)
	}
	// 672 B over [0, 1 µs), 680 B over [1 µs, 2 µs).
	if avg := q.stats.avgBytes(2*sim.Microsecond, q.bytes); avg != 676 {
		t.Errorf("avgBytes = %v, want 676", avg)
	}
	if q.stats.MaxBytes != 680 {
		t.Errorf("MaxBytes = %v, want 680", q.stats.MaxBytes)
	}
	for !q.empty() {
		pl.Put(q.pop(2 * sim.Microsecond))
	}
	if live := pl.Live(); live != 0 {
		t.Errorf("%d packets leaked", live)
	}
}
