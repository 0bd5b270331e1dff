package netem

import (
	"fmt"
	"testing"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Differential test: one clock per (phase, interval) ≡ one timer per
// port. Every scenario is built twice on its own engine — once through
// Network.Connect as shipped, once with refMeter, the per-port
// eng.After loop the clock replaced, on every port — and stepped in
// lockstep. The senders pace themselves at the rate the meters stamp on
// their packets, so a meter that ticked at another instant would feed
// back into the arrivals and the two worlds would part.
//
// Checked after every 10 µs step for 500 intervals of 100 µs: every
// meter's whole state (rate, arrived, minQueue, sawArrival) equals its
// reference's; at the end, the number of clocks is the scenario's, the
// reference executed exactly Σ (meters on a clock − 1) × ticks more
// events, and both worlds delivered the same packets.
//
// Mutations of rcp.go this was checked against:
//
//   - startRCP matches on interval alone, so a late port joins the
//     running clock instead of starting its own: "midrun" fails (the new
//     link's meters tick 45.678 µs out of phase; clock count 1, want 2).
//   - startRCP matches any clock of the network: "two-rtts" fails (the
//     70 µs core meters tick every 100 µs) as does "midrun".
//   - clocks looked up per engine instead of per network, so the second
//     network's meters join the first's clock: "two-networks" fails on
//     the clock count (1, want 2).
//   - one clock per meter (never join): every scenario fails on the
//     clock count.
//   - rcpClockTick walks c.meters[1:], or does not re-arm: every
//     scenario fails on the first differing meter.
//   - rcpClockTick re-arms at Now()+2·interval: every scenario fails.
//
// Not mutations, and checked to pass — they are the same program as far
// as any output can tell, which is the argument DESIGN.md "RCP clock"
// makes for the bytes: walking c.meters in reverse (a tick touches only
// its own meter, and nothing runs between two updates of one tick), and
// re-arming before the walk (update() schedules nothing and reads no
// clock). Registration order is pinned structurally instead: clock
// members appear in port-creation order.

// refMeter is the implementation newRCPMeter had before the clock: one
// self-re-arming closure per meter, first armed where the port is made.
// ticks counts its firings.
func refMeter(eng *sim.Engine, m *rcpMeter, ticks *uint64) {
	var tick func()
	tick = func() {
		m.update()
		*ticks++
		eng.After(m.interval, tick)
	}
	eng.After(m.interval, tick)
}

// rcpWorld is one build of a scenario.
type rcpWorld struct {
	ref    bool
	eng    *sim.Engine
	nets   []*Network
	meters []*rcpMeter // port-creation order, across networks
	ticks  []*uint64   // ref only: firings of meters[i]'s timer
	recv   []*rcpFlow
}

func newRCPWorld(ref bool) *rcpWorld {
	return &rcpWorld{ref: ref, eng: sim.New(1)}
}

func (w *rcpWorld) network() *Network {
	n := NewNetwork(w.eng)
	w.nets = append(w.nets, n)
	return n
}

// connect is Network.Connect; in the reference world the ports are made
// without RCP and then given a meter and its own timer, a→b first, as
// newPort used to.
func (w *rcpWorld) connect(n *Network, a, b Node, cfg PortConfig) {
	rcp := cfg.RCP
	if w.ref {
		cfg.RCP = 0
	}
	ab, ba := n.Connect(a, b, cfg)
	for _, p := range []*Port{ab, ba} {
		if w.ref {
			p.rcp = newRCPMeter(cfg.Rate, rcp)
			ticks := new(uint64)
			w.ticks = append(w.ticks, ticks)
			refMeter(w.eng, p.rcp, ticks)
		}
		w.meters = append(w.meters, p.rcp)
	}
}

// rcpFlow is a sender paced at the last rate stamped on its own packets
// and the endpoint that receives them.
type rcpFlow struct {
	src, dst *Host
	id       packet.FlowID
	rate     unit.Rate
	got      int
	lastAt   sim.Time
}

func (w *rcpWorld) flow(src, dst *Host) {
	f := &rcpFlow{src: src, dst: dst, id: src.Network().NextFlowID(), rate: src.LineRate()}
	dst.Register(f.id, f)
	w.recv = append(w.recv, f)
	f.send()
}

func (f *rcpFlow) send() {
	p := mkData(f.src.Pool(), 1538)
	p.Src, p.Dst, p.Flow = f.src.ID(), f.dst.ID(), f.id
	f.src.Send(p)
	f.src.Engine().AfterD(f.src.Dom(), unit.TxTime(1538, f.rate), f.send)
}

func (f *rcpFlow) OnPacket(p *packet.Packet) {
	f.rate = p.RCPRate
	f.got++
	f.lastAt = f.dst.Engine().Now()
	f.dst.Pool().Put(p)
}

func rcpPortConfig(rtt sim.Duration) PortConfig {
	return PortConfig{
		Rate: 10 * unit.Gbps, Delay: sim.Microsecond, DataCapacity: 256 * unit.KB,
		RCP: rtt,
	}
}

// dumbbell adds pairs senders and receivers around a two-switch core to
// n, a flow per pair, and returns the right-hand switch and the first
// sender for scenarios that extend it.
func (w *rcpWorld) dumbbell(n *Network, pairs int, access, core PortConfig) (*Switch, *Host) {
	l, r := n.NewSwitch("l"), n.NewSwitch("r")
	w.connect(n, l, r, core)
	var src, dst []*Host
	for i := 0; i < pairs; i++ {
		s, d := n.NewHost(fmt.Sprintf("s%d", i), HostDelayConfig{}), n.NewHost(fmt.Sprintf("d%d", i), HostDelayConfig{})
		w.connect(n, s, l, access)
		w.connect(n, d, r, access)
		src, dst = append(src, s), append(dst, d)
	}
	n.BuildRoutes()
	for i := range src {
		w.flow(src[i], dst[i])
	}
	return r, src[0]
}

var rcpScenarios = []struct {
	name   string
	clocks int // across all networks, at the end
	build  func(w *rcpWorld)
}{
	{"dumbbell16", 1, func(w *rcpWorld) {
		cfg := rcpPortConfig(100 * sim.Microsecond)
		w.dumbbell(w.network(), 16, cfg, cfg)
	}},
	// One more receiver is cabled in 12.345678 ms into the run: its
	// link's two meters tick 45.678 µs after everyone else's, for ever.
	{"midrun", 2, func(w *rcpWorld) {
		cfg := rcpPortConfig(100 * sim.Microsecond)
		n := w.network()
		r, s0 := w.dumbbell(n, 16, cfg, cfg)
		w.eng.At(12345678*sim.Nanosecond, func() {
			late := n.NewHost("late", HostDelayConfig{})
			w.connect(n, late, r, cfg)
			n.BuildRoutes()
			w.flow(s0, late)
		})
	}},
	{"two-rtts", 2, func(w *rcpWorld) {
		w.dumbbell(w.network(), 4, rcpPortConfig(100*sim.Microsecond), rcpPortConfig(70*sim.Microsecond))
	}},
	{"two-networks", 2, func(w *rcpWorld) {
		cfg := rcpPortConfig(100 * sim.Microsecond)
		w.dumbbell(w.network(), 4, cfg, cfg)
		w.dumbbell(w.network(), 4, cfg, cfg)
	}},
}

func TestRCPClockMatchesPerPortTimers(t *testing.T) {
	const (
		step  = 10 * sim.Microsecond
		steps = 500 * 10 // 500 intervals of 100 µs
	)
	for _, sc := range rcpScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got, ref := newRCPWorld(false), newRCPWorld(true)
			sc.build(got)
			sc.build(ref)
			for k := 1; k <= steps; k++ {
				at := sim.Time(k) * step
				got.eng.RunUntil(at)
				ref.eng.RunUntil(at)
				if len(got.meters) != len(ref.meters) {
					t.Fatalf("t=%v: %d meters, reference has %d", at, len(got.meters), len(ref.meters))
				}
				for i, m := range got.meters {
					if *m != *ref.meters[i] {
						t.Fatalf("t=%v: meter %d is %+v on the clock, %+v on its own timer", at, i, *m, *ref.meters[i])
					}
				}
			}

			// Clock members in port-creation order, and the event
			// count: each member but the first is one event per tick
			// the reference ran and the clock did not.
			index := make(map[*rcpMeter]int, len(got.meters))
			for i, m := range got.meters {
				index[m] = i
			}
			var clocks, members int
			var saved uint64
			for _, n := range got.nets {
				clocks += len(n.rcpClocks)
				for _, c := range n.rcpClocks {
					members += len(c.meters)
					for j, m := range c.meters {
						if j > 0 {
							saved += *ref.ticks[index[m]]
							if index[m] < index[c.meters[j-1]] {
								t.Errorf("clock members out of port-creation order: meter %d after %d", index[m], index[c.meters[j-1]])
							}
						}
					}
				}
			}
			if clocks != sc.clocks || members != len(got.meters) {
				t.Errorf("%d clocks holding %d meters, want %d holding %d", clocks, members, sc.clocks, len(got.meters))
			}
			if *ref.ticks[0] == 0 {
				t.Fatal("fixture: the reference timers never fired")
			}
			if d := ref.eng.Executed() - got.eng.Executed(); d != saved {
				t.Errorf("reference executed %d events, clock %d: %d apart, want Σ(members−1)×ticks = %d",
					ref.eng.Executed(), got.eng.Executed(), d, saved)
			}
			for i, f := range got.recv {
				if r := ref.recv[i]; f.got != r.got || f.lastAt != r.lastAt || f.got == 0 {
					t.Errorf("flow %d: %d packets, last at %v; reference %d, %v", i, f.got, f.lastAt, r.got, r.lastAt)
				}
			}
		})
	}
}

// TestRCPRatesMove guards the fixture above: if the senders never
// congested the core, every meter would sit at capacity and the
// comparison would be of constants.
func TestRCPRatesMove(t *testing.T) {
	w := newRCPWorld(false)
	rcpScenarios[0].build(w)
	w.eng.RunUntil(20 * sim.Millisecond)
	core := w.meters[0] // l→r
	if share := float64(core.rate) / float64(core.capacity); share < 0.03 || share > 0.25 {
		t.Errorf("16 senders on one core link: its meter offers %.3f of capacity, want near 1/16", share)
	}
}
