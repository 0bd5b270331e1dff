package dctcp_test

import (
	"testing"

	"expresspass/internal/dctcp"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func net10G(seed uint64, n int) (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(seed)
	d := topology.NewDumbbell(eng, n, topology.Config{
		LinkRate:     10 * unit.Gbps,
		LinkDelay:    4 * sim.Microsecond,
		ECNThreshold: dctcp.RecommendedK(10 * unit.Gbps),
	})
	return eng, d
}

func dial(d *topology.Dumbbell, i int, size unit.Bytes, at sim.Time) (*transport.Flow, *transport.Conn) {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], size, at)
	c := transport.NewConn(f, dctcp.New(),
		transport.ConnConfig{ECN: true, MinCwnd: 2})
	return f, c
}

func TestDCTCPSingleFlowSaturates(t *testing.T) {
	eng, d := net10G(1, 2)
	f, _ := dial(d, 0, 0, 0)
	// Slow-start can overshoot the shallow buffer before the first
	// marked window lands (real DCTCP behaves the same); judge steady
	// state only.
	eng.RunUntil(10 * sim.Millisecond)
	preDrops := d.Net.Stats().DataDrops
	f.TakeDeliveredDelta()
	eng.RunFor(20 * sim.Millisecond)
	goodput := float64(f.TakeDeliveredDelta()) * 8 / 0.02
	if goodput < 8.5e9 {
		t.Errorf("steady goodput %.3g, want near line rate", goodput)
	}
	if drops := d.Net.Stats().DataDrops; drops != preDrops {
		t.Errorf("steady-state drops: %d new", drops-preDrops)
	}
}

func TestDCTCPKeepsQueueNearThreshold(t *testing.T) {
	eng, d := net10G(2, 4)
	for i := 0; i < 4; i++ {
		dial(d, i, 0, 0)
	}
	eng.RunUntil(50 * sim.Millisecond)
	k := dctcp.RecommendedK(10 * unit.Gbps)
	maxQ := d.Bottleneck.Stats().DataQueueMaxBytes
	// Steady queue oscillates around K; transients (slow-start overshoot)
	// may spike higher but not by an order of magnitude.
	if maxQ < k/4 {
		t.Errorf("max queue %v suspiciously below K %v", maxQ, k)
	}
	if maxQ > 4*k {
		t.Errorf("max queue %v far above K %v", maxQ, k)
	}
}

func TestDCTCPFairTwoFlows(t *testing.T) {
	eng, d := net10G(3, 2)
	f0, _ := dial(d, 0, 0, 0)
	f1, _ := dial(d, 1, 0, 0)
	eng.RunUntil(100 * sim.Millisecond)
	f0.TakeDeliveredDelta()
	f1.TakeDeliveredDelta()
	eng.RunFor(100 * sim.Millisecond)
	r0 := float64(f0.TakeDeliveredDelta())
	r1 := float64(f1.TakeDeliveredDelta())
	if ratio := r0 / r1; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("unfair: %.3g vs %.3g", r0, r1)
	}
}

func TestDCTCPAlphaDecaysWhenUncongested(t *testing.T) {
	eng, d := net10G(4, 2)
	cc := dctcp.New()
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	transport.NewConn(f, cc, transport.ConnConfig{ECN: true, MinCwnd: 2})
	eng.RunUntil(3 * sim.Millisecond) // slow start, little marking yet
	if cc.Alpha() > 0.9 {
		t.Errorf("alpha did not decay from 1: %v", cc.Alpha())
	}
}

func TestRecommendedK(t *testing.T) {
	if k := dctcp.RecommendedK(10 * unit.Gbps); k != unit.Bytes(65*1538) {
		t.Errorf("K(10G) = %v, want 65 packets", k)
	}
	if k := dctcp.RecommendedK(100 * unit.Gbps); k != unit.Bytes(650*1538) {
		t.Errorf("K(100G) = %v, want 650 packets", k)
	}
	// Floor for slow links.
	if k := dctcp.RecommendedK(1 * unit.Gbps); k != unit.Bytes(20*1538) {
		t.Errorf("K(1G) = %v, want 20-packet floor", k)
	}
}
