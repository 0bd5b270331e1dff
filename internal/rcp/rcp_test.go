package rcp_test

import (
	"testing"

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
		RCP:       50 * sim.Microsecond,
	})
	return eng, d
}

func dial(d *topology.Dumbbell, i int, size unit.Bytes) (*transport.Flow, *transport.Conn) {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], size, 0)
	c := transport.NewConn(f, rcp.New(), transport.ConnConfig{
		Mode: transport.ModePaced, InitRate: 100 * unit.Mbps,
	})
	return f, c
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
	for _, f := range flows {
		f.TakeDeliveredDelta()
	}
	eng.RunFor(30 * sim.Millisecond)
	for i, f := range flows {
		gbps := float64(f.TakeDeliveredDelta()) * 8 / 0.03 / 1e9
		if gbps < 1.8 || gbps > 3.0 {
			t.Errorf("flow %d: %.2f Gbps, want ≈2.37 (C/4)", i, gbps)
		}
	}
	_ = conns
}

func TestRCPRequiresPacedMode(t *testing.T) {
	eng, d := rcpNet(3, 2)
	_ = eng
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("window-mode RCP did not panic")
		}
	}()
	c := transport.NewConn(f, rcp.New(), transport.ConnConfig{Mode: transport.ModeWindow})
	eng.RunUntil(sim.Microsecond) // Init runs at start
	_ = c
}

func TestRCPMeterExposesRate(t *testing.T) {
	eng, d := rcpNet(4, 2)
	dial(d, 0, 0)
	eng.RunUntil(10 * sim.Millisecond)
	if r := d.Bottleneck.RCPRate(); r <= 0 {
		t.Error("bottleneck meter not running")
	}
	// A port without RCP reports zero.
	if r := d.Senders[0].NIC().Peer().RCPRate(); r <= 0 {
		// sender-side ToR ports also have RCP in this config; check a
		// network without RCP instead.
		eng2 := sim.New(1)
		d2 := topology.NewDumbbell(eng2, 2, topology.Config{LinkRate: 10 * unit.Gbps})
		if d2.Bottleneck.RCPRate() != 0 {
			t.Error("non-RCP port reports a rate")
		}
	}
}
