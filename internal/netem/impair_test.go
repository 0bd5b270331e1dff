package netem

import (
	"testing"

	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// dropEveryN is a deterministic LossModel for pool-balance tests.
type dropEveryN struct{ n, i int }

func (m *dropEveryN) Drop() bool {
	m.i++
	return m.i%m.n == 0
}

func TestPoolBalanceLossModelDrop(t *testing.T) {
	t.Parallel()
	// Room for all 40 credits: none may die of credit-queue overflow.
	eng, net, _, b, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: 0, CreditQueueCap: 64})
	ab.SetLossModel(&dropEveryN{n: 2}, &dropEveryN{n: 2})
	for i := 0; i < 40; i++ {
		ab.Enqueue(mkData(net.Pool(), 1538))
		ab.Enqueue(mkCredit(net.Pool()))
	}
	eng.Run()
	if got := ab.Stats().FaultDrops; got != 40 {
		t.Fatalf("FaultDrops = %d, want 40 (20 per class)", got)
	}
	if b.got != 40 {
		t.Fatalf("delivered %d, want 40 survivors", b.got)
	}
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("model loss: %d packets leaked", live)
	}
}

func TestPoolBalanceDuplication(t *testing.T) {
	t.Parallel()
	eng, net, _, b, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: 0, CreditQueueCap: 64})
	// Duplicate every data packet; credits untouched (and all 25 fit).
	ab.SetDuplication(0, 1.0, sim.NewRand(3))
	for i := 0; i < 25; i++ {
		ab.Enqueue(mkData(net.Pool(), 1538))
		ab.Enqueue(mkCredit(net.Pool()))
	}
	eng.Run()
	if got := ab.Stats().FaultDups; got != 25 {
		t.Fatalf("FaultDups = %d, want 25", got)
	}
	if b.data != 50 || b.credits != 25 {
		t.Fatalf("delivered data=%d credits=%d, want 50/25", b.data, b.credits)
	}
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("duplication: %d packets leaked (clone not recycled?)", live)
	}
}

// TestPoolBalanceDuplicationOverflow pins the nastier interaction: a
// clone admitted into a full queue must die through the normal drop-tail
// accounting, not leak or double-free.
func TestPoolBalanceDuplicationOverflow(t *testing.T) {
	t.Parallel()
	eng, net, _, _, ab := pair(t, PortConfig{
		Rate: 10 * unit.Gbps, Delay: 0, DataCapacity: 3 * 1538,
	})
	ab.SetDuplication(0, 1.0, sim.NewRand(3))
	for i := 0; i < 40; i++ {
		ab.Enqueue(mkData(net.Pool(), 1538))
	}
	eng.Run()
	if ab.Stats().DataDrops == 0 {
		t.Fatal("scenario failed to overflow the data queue")
	}
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("duplication overflow: %d packets leaked", live)
	}
}

func TestPoolBalanceCorruptionAtHost(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	net := NewNetwork(eng)
	h := net.NewHost("h", HardwareNICDelay())
	sw := net.NewSwitch("sw")
	net.Connect(h, sw, PortConfig{Rate: 10 * unit.Gbps, Delay: 0})
	net.BuildRoutes()

	// A corrupted frame still reaches the destination NIC; the CRC check
	// drops it there, before demux can touch flow state.
	p := mkData(net.Pool(), 1538)
	p.Dst = h.ID()
	p.Corrupt = true
	h.Deliver(p, h.NIC())
	if got := h.NIC().Stats().CorruptDrops; got != 1 {
		t.Fatalf("CorruptDrops = %d, want 1", got)
	}
	if h.Unclaimed != 0 {
		t.Fatal("corrupt frame leaked into demux (Unclaimed != 0)")
	}
	eng.Run()
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("corrupt drop: %d packets leaked", live)
	}
}

// TestImpairCorruptMarksInFlight checks the switch-side half: marking
// happens at the impaired egress with the class rate, the frame still
// transits (queues, wire, delivery), and the port counter converges.
func TestImpairCorruptMarksInFlight(t *testing.T) {
	t.Parallel()
	eng, net, _, b, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: 0})
	ab.SetCorruption(0, 0.25, sim.NewRand(5))
	const n = 4000
	for i := 0; i < n; i++ {
		ab.Enqueue(mkData(net.Pool(), 1538))
	}
	eng.Run()
	got := ab.Stats().FaultCorrupts
	if got < n/4*8/10 || got > n/4*12/10 {
		t.Fatalf("FaultCorrupts = %d, want ≈%d (±20%%)", got, n/4)
	}
	if b.data != n {
		t.Fatalf("delivered %d, want all %d (corruption must not drop in fabric)", b.data, n)
	}
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("corrupt mark: %d packets leaked", live)
	}
}

// TestImpairReorderBoundedAndConverges drives impairDepart directly:
// the extra wire delay is 0 (not selected) or in [1, maxExtra] always,
// and the selection frequency converges to the configured rate.
func TestImpairReorderBoundedAndConverges(t *testing.T) {
	t.Parallel()
	_, _, _, _, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: 0})
	const rate, max = 0.3, 20 * sim.Microsecond
	ab.SetReorder(rate, max, sim.NewRand(9))
	const n = 20000
	held := 0
	for i := 0; i < n; i++ {
		extra := ab.impairDepart(ab.impair)
		if extra < 0 || extra > max {
			t.Fatalf("reorder extra %v outside [0, %v]", extra, max)
		}
		if extra > 0 {
			held++
		}
	}
	if got := ab.Stats().FaultReorders; got != uint64(held) {
		t.Fatalf("FaultReorders = %d, want %d", got, held)
	}
	f := float64(held) / n
	if f < rate*0.9 || f > rate*1.1 {
		t.Fatalf("reorder frequency %.3f, want ≈%.2f (±10%%)", f, rate)
	}
}

// TestImpairDupRateConverges checks the admit-time duplication draw
// against its configured probability over a long run.
func TestImpairDupRateConverges(t *testing.T) {
	t.Parallel()
	_, net, _, _, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: 0})
	const rate = 0.2
	ab.SetDuplication(0, rate, sim.NewRand(11))
	const n = 20000
	pkt := mkData(net.Pool(), 1538)
	clones := 0
	for i := 0; i < n; i++ {
		clone, ok := ab.impairAdmit(ab.impair, pkt, 0)
		if !ok {
			t.Fatal("no loss model installed, admit must succeed")
		}
		if clone != nil {
			clones++
			net.Pool().Put(clone)
		}
		pkt.Corrupt = false
	}
	net.Pool().Put(pkt)
	f := float64(clones) / n
	if f < rate*0.9 || f > rate*1.1 {
		t.Fatalf("dup frequency %.3f, want ≈%.2f (±10%%)", f, rate)
	}
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("dup convergence: %d packets leaked", live)
	}
}

// TestImpairDelayJitterAdditive pins that delay jitter adds exactly the
// sampled extra on top of serialization + propagation — never less.
func TestImpairDelayJitterAdditive(t *testing.T) {
	t.Parallel()
	run := func(extra sim.Duration) sim.Time {
		eng, net, _, _, ab := pair(t, PortConfig{
			Rate: 10 * unit.Gbps, Delay: 2 * sim.Microsecond,
		})
		if extra > 0 {
			ab.SetDelayJitter(func() sim.Duration { return extra })
		}
		ab.Enqueue(mkData(net.Pool(), 1538))
		eng.Run()
		return eng.Now() // the delivery event is the last thing scheduled
	}
	base, jittered := run(0), run(5*sim.Microsecond)
	if jittered-base != sim.Time(5*sim.Microsecond) {
		t.Fatalf("delay jitter shifted arrival by %v, want exactly 5µs", jittered-base)
	}
}

// TestImpairRateJitterStretchesTx pins the rate-jitter contract: a
// stretch fraction f makes the serialization take tx·(1+f), keeping the
// transmitter busy longer (it degrades throughput, not just latency).
func TestImpairRateJitterStretchesTx(t *testing.T) {
	t.Parallel()
	run := func(f float64) sim.Time {
		eng, net, _, _, ab := pair(t, PortConfig{
			Rate: 10 * unit.Gbps, Delay: 0,
		})
		if f > 0 {
			ab.SetRateJitter(func() float64 { return f })
		}
		ab.Enqueue(mkData(net.Pool(), 1538))
		eng.Run()
		return eng.Now()
	}
	base, stretched := run(0), run(1.0)
	if stretched != 2*base {
		t.Fatalf("rate jitter 1.0 gave arrival %v, want 2× the base %v", stretched, base)
	}
}

// TestImpairSettleRestoresCleanPath checks that clearing every hook
// frees the impairment block (the clean fast path is a single nil
// check).
func TestImpairSettleRestoresCleanPath(t *testing.T) {
	t.Parallel()
	_, _, _, _, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: 0})
	rng := sim.NewRand(1)
	ab.SetLossModel(&dropEveryN{n: 2}, nil)
	ab.SetDuplication(0.1, 0.1, rng)
	ab.SetCorruption(0.1, 0.1, rng)
	ab.SetReorder(0.1, sim.Microsecond, rng)
	ab.SetDelayJitter(func() sim.Duration { return 0 })
	ab.SetRateJitter(func() float64 { return 0 })
	if ab.impair == nil {
		t.Fatal("impairment block not installed")
	}
	ab.SetLossModel(nil, nil)
	ab.SetDuplication(0, 0, nil)
	ab.SetCorruption(0, 0, nil)
	ab.SetReorder(0, 0, nil)
	ab.SetDelayJitter(nil)
	ab.SetRateJitter(nil)
	if ab.impair != nil {
		t.Fatal("impairment block not freed after clearing every hook")
	}
}
