package dx_test

import (
	"testing"

	"expresspass/internal/dx"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func dxNet(seed uint64, n int) (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(seed)
	d := topology.NewDumbbell(eng, n, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
	})
	return eng, d
}

func dial(d *topology.Dumbbell, i int) *transport.Flow {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
	transport.NewConn(f, dx.New(), 0)
	return f
}

func TestDXUtilizesLink(t *testing.T) {
	eng, d := dxNet(1, 2)
	f := dial(d, 0)
	eng.RunUntil(30 * sim.Millisecond)
	goodput := float64(f.BytesDelivered) * 8 / 0.03
	if goodput < 7.5e9 {
		t.Errorf("goodput %.3g bps", goodput)
	}
}

// DX's whole point: keep the queue near zero by reacting to the first
// microseconds of queuing delay.
func TestDXKeepsQueueLow(t *testing.T) {
	eng, d := dxNet(2, 4)
	for i := 0; i < 4; i++ {
		dial(d, i)
	}
	eng.RunUntil(20 * sim.Millisecond)
	d.Bottleneck.ResetStats()
	eng.RunFor(30 * sim.Millisecond)
	maxQ := d.Bottleneck.Stats().DataQueueMaxBytes
	if maxQ > 60*unit.KB {
		t.Errorf("steady max queue %v, want low (delay-based)", maxQ)
	}
	if d.Net.Stats().DataDrops != 0 {
		t.Error("DX dropped data in steady state")
	}
}

func TestDXSharesFairly(t *testing.T) {
	eng, d := dxNet(3, 2)
	f0 := dial(d, 0)
	f1 := dial(d, 1)
	eng.RunUntil(30 * sim.Millisecond)
	f0.TakeDeliveredDelta()
	f1.TakeDeliveredDelta()
	eng.RunFor(50 * sim.Millisecond)
	r0 := float64(f0.TakeDeliveredDelta())
	r1 := float64(f1.TakeDeliveredDelta())
	if ratio := r0 / r1; ratio < 0.6 || ratio > 1.7 {
		t.Errorf("unfair: %.3g vs %.3g", r0, r1)
	}
}
