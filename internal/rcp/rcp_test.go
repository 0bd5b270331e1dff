package rcp_test

import (
	"testing"

	"expresspass/internal/netem"
	"expresspass/internal/rcp"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func rcpNet(seed uint64, n int) (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(seed)
	d := topology.NewDumbbell(eng, n, topology.Config{
		LinkRate:  10 * unit.Gbps,
		LinkDelay: 4 * sim.Microsecond,
		Port:      netem.PortConfig{RCP: 50 * sim.Microsecond},
	})
	return eng, d
}

func dial(d *topology.Dumbbell, i int, size unit.Bytes) (*transport.Flow, *transport.Conn) {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], size, 0)
	return f, transport.NewConn(f, rcp.New(), 0)
}

func TestRCPAdoptsRouterRate(t *testing.T) {
	eng, d := rcpNet(1, 2)
	_, c := dial(d, 0, 0)
	eng.RunUntil(20 * sim.Millisecond)
	// Single flow: router rate converges to capacity; sender adopts it.
	if c.PaceRate < 8*unit.Gbps {
		t.Errorf("pace rate %v, want near 10G", c.PaceRate)
	}
}

func TestRCPSplitsEvenly(t *testing.T) {
	eng, d := rcpNet(2, 4)
	var conns []*transport.Conn
	var flows []*transport.Flow
	for i := 0; i < 4; i++ {
		f, c := dial(d, i, 0)
		flows = append(flows, f)
		conns = append(conns, c)
	}
	eng.RunUntil(30 * sim.Millisecond)
	before := make([]unit.Bytes, len(flows))
	for i, f := range flows {
		before[i] = f.BytesDelivered
	}
	eng.RunFor(30 * sim.Millisecond)
	for i, f := range flows {
		gbps := float64(f.BytesDelivered-before[i]) * 8 / 0.03 / 1e9
		if gbps < 1.8 || gbps > 3.0 {
			t.Errorf("flow %d: %.2f Gbps, want ≈2.37 (C/4)", i, gbps)
		}
	}
	_ = conns
}

// TestRCPMeterExposesRate: a sender leaves its 1%-of-line start rate
// only for a rate a port's meter stamped, so on a network without RCP
// ports it keeps that rate.
func TestRCPMeterExposesRate(t *testing.T) {
	start := 10 * unit.Gbps / 100
	eng, d := rcpNet(4, 2)
	_, c := dial(d, 0, 0)
	eng.RunUntil(10 * sim.Millisecond)
	if c.PaceRate == start {
		t.Error("no meter stamped a rate")
	}
	eng2 := sim.New(4)
	d2 := topology.NewDumbbell(eng2, 2, topology.Config{LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond})
	_, c2 := dial(d2, 0, 0)
	eng2.RunUntil(10 * sim.Millisecond)
	if c2.PaceRate != start {
		t.Errorf("pace rate %v without RCP ports, want the start rate %v", c2.PaceRate, start)
	}
}
