package netem

import (
	"testing"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// These tests audit the packet pool's get/put balance on every drop
// path in the network model. Every packet a scenario injects must be
// recycled exactly once by the end of the run — whether it was
// delivered, tail-dropped, displaced by random-victim, misrouted,
// unclaimed, or discarded under PFC pressure — so the network's
// Pool().Live() must read zero. A positive count is a leak (a drop path
// missing its Put); a second Put of one packet panics where it happens.
// Each test owns its network and its pool, so they run in parallel.

// drainBalanced runs the network's engine dry and checks its pool.
func drainBalanced(t *testing.T, net *Network, what string) {
	t.Helper()
	net.Eng.Run()
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("%s: %d packets leaked", what, live)
	}
}

// TestPoolBalanceLeakAndDoubleFreeDoNotCancel: an endpoint keeps the
// first packet it is handed and frees the second twice. A Get−Put
// balance alone reads zero for that run, the leak and the double free
// cancelling; the second Put must panic instead, and the leak must show.
func TestPoolBalanceLeakAndDoubleFreeDoNotCancel(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	net := NewNetwork(eng)
	src := net.NewHost("src", HardwareNICDelay())
	dst := net.NewHost("dst", HardwareNICDelay())
	net.Connect(src, dst, PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond})
	var kept *packet.Packet
	panicked := false
	dst.Register(1, endpointFunc(func(p *packet.Packet) {
		if kept == nil {
			kept = p // the leak
			return
		}
		net.Pool().Put(p)
		defer func() { panicked = recover() != nil }()
		net.Pool().Put(p) // the double free
	}))
	for i := 0; i < 2; i++ {
		p := mkData(net.Pool(), 1538)
		p.Flow, p.Src, p.Dst = 1, src.ID(), dst.ID()
		src.Send(p)
	}
	eng.Run()
	if !panicked {
		t.Fatalf("a second Put of one packet did not panic (Live = %d)", net.Pool().Live())
	}
	if live := net.Pool().Live(); live != 1 {
		t.Errorf("Live = %d with one packet kept, want 1", live)
	}
}

func TestPoolBalanceDataDropTail(t *testing.T) {
	t.Parallel()
	_, net, _, _, ab := pair(t, PortConfig{
		Rate: 10 * unit.Gbps, Delay: 0, DataCapacity: 3 * 1538,
	})
	for i := 0; i < 50; i++ {
		ab.Enqueue(mkData(net.Pool(), 1538))
	}
	if ab.Stats().DataDrops == 0 {
		t.Fatal("scenario failed to force data drop-tail")
	}
	drainBalanced(t, net, "data drop-tail")
}

func TestPoolBalanceCreditOverflow(t *testing.T) {
	t.Parallel()
	eng, net, _, b, ab := pair(t, PortConfig{
		Rate: 10 * unit.Gbps, Delay: 0, CreditQueueCap: 4,
	})
	// Burst far more credits than the 4-slot queue plus the shaped
	// drain rate can hold: the overflow path in Port.Enqueue must
	// recycle every rejected credit.
	for i := 0; i < 200; i++ {
		ab.Enqueue(mkCredit(net.Pool()))
	}
	eng.Run()
	if ab.Stats().CreditDrops == 0 {
		t.Fatal("scenario failed to force credit overflow")
	}
	if b.credits == 0 {
		t.Fatal("no credits survived — limiter never drained")
	}
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("credit overflow: %d packets leaked", live)
	}
}

// TestPoolBalanceCreditQueueVictims drives the creditQueue directly to
// pin both victim-selection branches: drop-tail (the arrival dies) and
// random-victim (a queued credit is displaced and must be recycled).
func TestPoolBalanceCreditQueueVictims(t *testing.T) {
	t.Parallel()
	var pl packet.Pool
	q := &creditQueue{cap: 2}
	// nil rng → drop-tail: arrivals beyond cap are refused; push returns
	// the arrival and the caller (us, like Port.Enqueue) recycles it.
	for i := 0; i < 6; i++ {
		p := mkCredit(&pl)
		if d := q.push(0, p, nil); d != nil {
			if d != p {
				t.Fatal("drop-tail displaced a queued credit")
			}
			pl.Put(d)
		}
	}
	// Seeded rng → eventually random-victim: a queued credit is
	// displaced in place and push returns it for recycling.
	rng := sim.NewRand(7)
	displaced := false
	for i := 0; i < 64 && !displaced; i++ {
		p := mkCredit(&pl)
		if d := q.push(0, p, rng); d != nil {
			displaced = d != p
			pl.Put(d)
		}
	}
	if !displaced {
		t.Fatal("random-victim branch never taken in 64 seeded pushes")
	}
	for !q.empty() {
		pl.Put(q.pop(0))
	}
	if live := pl.Live(); live != 0 {
		t.Fatalf("credit-queue victims: %d packets leaked", live)
	}
}

func TestPoolBalanceMisroutedAndUnclaimed(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	net := NewNetwork(eng)
	sw := net.NewSwitch("sw")
	h := net.NewHost("h", HardwareNICDelay())
	net.Connect(h, sw, PortConfig{Rate: 10 * unit.Gbps, Delay: 0})
	net.BuildRoutes()

	// Misroute: a destination no routing table knows about.
	p := mkData(net.Pool(), 1538)
	p.Src = h.ID()
	p.Dst = 9999
	sw.Deliver(p, nil)
	if sw.Misrouted != 1 {
		t.Fatalf("Misrouted = %d, want 1", sw.Misrouted)
	}

	// Unclaimed: a flow no endpoint registered for.
	q := mkData(net.Pool(), 1538)
	q.Flow = 4242
	q.Dst = h.ID()
	h.Deliver(q, nil)
	if h.Unclaimed != 1 {
		t.Fatalf("Unclaimed = %d, want 1", h.Unclaimed)
	}
	drainBalanced(t, net, "misroute/unclaimed")
}

// TestPoolBalanceMidRunReroute pins the mid-run reconvergence contract:
// failing a link and rebuilding routes while a burst is strung across
// queues and wires must land every orphaned packet in the
// misroute/unclaimed accounting — nothing may silently leak.
func TestPoolBalanceMidRunReroute(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	net := NewNetwork(eng)
	swA := net.NewSwitch("swA")
	swB := net.NewSwitch("swB")
	src := net.NewHost("src", HardwareNICDelay())
	dst := net.NewHost("dst", HardwareNICDelay())
	cfg := PortConfig{Rate: 1 * unit.Gbps, Delay: 10 * sim.Microsecond,
		DataCapacity: 64 * 1538}
	net.Connect(src, swA, cfg)
	net.Connect(swA, swB, cfg)
	edge, _ := net.Connect(swB, dst, cfg)
	net.BuildRoutes()

	got := 0
	dst.Register(1, endpointFunc(func(p *packet.Packet) {
		got++
		net.Pool().Put(p)
	}))
	for i := 0; i < 40; i++ {
		p := mkData(net.Pool(), 1538)
		p.Flow = 1
		p.Src = src.ID()
		p.Dst = dst.ID()
		src.Send(p)
	}
	// Mid-burst (the 40-packet burst takes ~500µs to serialize at
	// 1 Gbps), fail the destination edge (routing-only) and reconverge:
	// every switch's route to dst is cleared, so packets still in the
	// fabric must hit Misrouted at the switch they reach.
	eng.After(150*sim.Microsecond, func() {
		edge.Fail()
		net.BuildRoutes()
	})
	eng.Run()
	if got == 0 {
		t.Fatal("nothing delivered before the reroute")
	}
	if mis := swA.Misrouted + swB.Misrouted; mis == 0 {
		t.Fatal("mid-run reroute orphaned no packets into Misrouted")
	}
	drainBalanced(t, net, "mid-run reroute")
}

// TestPoolBalanceLinkDownFlush pins the hard-down fault path: taking a
// link down mid-burst flushes both egress classes and loses in-flight
// packets, all of it into fault-drop accounting with the pool balanced.
func TestPoolBalanceLinkDownFlush(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	net := NewNetwork(eng)
	swA := net.NewSwitch("swA")
	swB := net.NewSwitch("swB")
	src := net.NewHost("src", HardwareNICDelay())
	dst := net.NewHost("dst", HardwareNICDelay())
	cfg := PortConfig{Rate: 1 * unit.Gbps, Delay: 10 * sim.Microsecond,
		DataCapacity: 64 * 1538, CreditQueueCap: 8}
	net.Connect(src, swA, cfg)
	mid, _ := net.Connect(swA, swB, cfg)
	net.Connect(swB, dst, cfg)
	net.BuildRoutes()

	got := 0
	dst.Register(1, endpointFunc(func(p *packet.Packet) {
		got++
		net.Pool().Put(p)
	}))
	for i := 0; i < 40; i++ {
		p := mkData(net.Pool(), 1538)
		p.Flow = 1
		p.Src = src.ID()
		p.Dst = dst.ID()
		src.Send(p)
	}
	// Park some credits on the mid link too, so the flush covers both
	// egress classes.
	for i := 0; i < 4; i++ {
		mid.Enqueue(mkCredit(net.Pool()))
	}
	eng.After(50*sim.Microsecond, func() {
		net.SetLinkDown(mid, true)
		net.BuildRoutes()
	})
	eng.Run()
	if got == 0 {
		t.Fatal("nothing delivered before the link went down")
	}
	if net.Stats().FaultDrops == 0 {
		t.Fatal("link-down flush destroyed nothing")
	}
	drainBalanced(t, net, "link-down flush")
}

// TestPoolBalanceTypedTxPathInFlightLoss pins the typed tx event chain
// (portTxDone / portArrive scheduled via At2, see transmit): packets
// already serialized onto the wire when the link goes hard-down reach
// their arrival instant inside the typed portArrive handler, which must
// route them into fault-drop accounting and recycle them — combined
// with drop-tail pressure on the same port so both typed-path exits
// (deliver and drop) run in one scenario.
func TestPoolBalanceTypedTxPathInFlightLoss(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	net := NewNetwork(eng)
	src := net.NewHost("src", HardwareNICDelay())
	dst := net.NewHost("dst", HardwareNICDelay())
	// Long wire: at 1 Gbps a 1538B frame serializes in ~12µs, so a
	// 100µs delay keeps several packets in flight at any instant. The
	// shallow egress queue forces drop-tail on the same burst.
	link, _ := net.Connect(src, dst, PortConfig{
		Rate: 1 * unit.Gbps, Delay: 100 * sim.Microsecond,
		DataCapacity: 8 * 1538})
	net.BuildRoutes()

	got := 0
	dst.Register(1, endpointFunc(func(p *packet.Packet) {
		got++
		net.Pool().Put(p)
	}))
	for i := 0; i < 40; i++ {
		p := mkData(net.Pool(), 1538)
		p.Flow = 1
		p.Src = src.ID()
		p.Dst = dst.ID()
		src.Send(p)
	}
	if link.Stats().DataDrops == 0 {
		t.Fatal("scenario failed to force drop-tail through the typed tx path")
	}
	// At 150µs several packets have been delivered, several are mid-air
	// (their portArrive events pending), and the queue still holds more.
	eng.After(150*sim.Microsecond, func() {
		net.SetLinkDown(link, true)
	})
	eng.Run()
	if got == 0 {
		t.Fatal("nothing delivered before the link went down")
	}
	if net.Stats().FaultDrops == 0 {
		t.Fatal("no in-flight packet was lost at its typed arrival event")
	}
	drainBalanced(t, net, "typed tx path in-flight loss")
}

func TestPoolBalancePFCWithDrops(t *testing.T) {
	t.Parallel()
	// PFC chain with an XOff so high it never pauses, plus a shallow
	// egress queue: packets are dropped while PFC ingress accounting is
	// active, exercising the pfcOnDepart-then-Put drop path.
	eng := sim.New(1)
	net := NewNetwork(eng)
	sw := net.NewSwitch("sw")
	fast := PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond,
		DataCapacity: 4 * 1538, PFC: 16 * unit.MB}
	slow := fast
	slow.Rate = 1 * unit.Gbps
	src := net.NewHost("src", HardwareNICDelay())
	dst := net.NewHost("dst", HardwareNICDelay())
	net.Connect(src, sw, fast)
	net.Connect(dst, sw, slow)
	net.BuildRoutes()
	got := 0
	dst.Register(1, endpointFunc(func(p *packet.Packet) {
		got++
		net.Pool().Put(p)
	}))
	var emit func()
	n := 0
	emit = func() {
		p := net.Pool().Get()
		p.Kind = packet.Data
		p.Flow = 1
		p.Src = src.ID()
		p.Dst = dst.ID()
		p.Wire = 1538
		p.Payload = 1460
		src.Send(p)
		if n++; n < 500 {
			eng.After(unit.TxTime(1538, 10*unit.Gbps), emit)
		}
	}
	emit()
	eng.Run()
	drops := dst.NIC().Peer().Stats().DataDrops
	if drops == 0 {
		t.Fatal("scenario failed to force drops on the PFC-accounted egress")
	}
	if got == 0 {
		t.Fatal("nothing delivered")
	}
	if live := net.Pool().Live(); live != 0 {
		t.Fatalf("PFC-with-drops: %d packets leaked", live)
	}
}
