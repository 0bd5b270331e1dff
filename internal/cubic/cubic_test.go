package cubic_test

import (
	"testing"

	"expresspass/internal/cubic"
	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func cubicNet(seed uint64, n int, queue unit.Bytes) (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(seed)
	d := topology.NewDumbbell(eng, n, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
		Port: netem.PortConfig{DataCapacity: queue},
	})
	return eng, d
}

func dial(d *topology.Dumbbell, i int) (*transport.Flow, *transport.Conn) {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
	c := transport.NewConn(f, cubic.New(), 2*sim.Millisecond)
	return f, c
}

func TestCubicFillsPipe(t *testing.T) {
	eng, d := cubicNet(1, 2, 250*1538)
	f, _ := dial(d, 0)
	eng.RunUntil(20 * sim.Millisecond)
	f.TakeDeliveredDelta()
	eng.RunFor(30 * sim.Millisecond)
	goodput := float64(f.TakeDeliveredDelta()) * 8 / 0.03
	if goodput < 8e9 {
		t.Errorf("steady goodput %.3g bps", goodput)
	}
}

func TestCubicReactsToLoss(t *testing.T) {
	// A tiny buffer forces drops; CUBIC must keep making progress via
	// fast retransmit without collapsing.
	eng, d := cubicNet(2, 2, 20*1538)
	f, c := dial(d, 0)
	eng.RunUntil(50 * sim.Millisecond)
	if d.Net.Stats().DataDrops == 0 {
		t.Fatal("expected drops")
	}
	if c.Retransmits == 0 {
		t.Error("no retransmissions despite drops")
	}
	goodput := float64(f.BytesDelivered) * 8 / 0.05
	if goodput < 5e9 {
		t.Errorf("goodput %.3g bps under loss", goodput)
	}
}

func TestCubicEventuallyFair(t *testing.T) {
	eng, d := cubicNet(3, 2, 250*1538)
	f0, _ := dial(d, 0)
	f1, _ := dial(d, 1)
	eng.RunUntil(150 * sim.Millisecond)
	f0.TakeDeliveredDelta()
	f1.TakeDeliveredDelta()
	eng.RunFor(150 * sim.Millisecond)
	r0 := float64(f0.TakeDeliveredDelta())
	r1 := float64(f1.TakeDeliveredDelta())
	if ratio := r0 / r1; ratio < 0.25 || ratio > 4.0 {
		t.Errorf("long-run share %.3g vs %.3g", r0, r1)
	}
}
