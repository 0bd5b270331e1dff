package idealrate_test

import (
	"slices"
	"testing"

	"expresspass/internal/idealrate"
	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func dial(d *topology.Dumbbell, o *idealrate.Oracle, i int) (*transport.Flow, *transport.Conn) {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
	c := transport.NewConn(f, idealrate.CC{}, transport.ConnConfig{Mode: transport.ModePaced})
	o.Attach(c)
	return f, c
}

func TestOracleEqualSplit(t *testing.T) {
	eng := sim.New(1)
	d := topology.NewDumbbell(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
	o := idealrate.NewOracle(d.Net)
	var conns []*transport.Conn
	for i := 0; i < 4; i++ {
		_, c := dial(d, o, i)
		conns = append(conns, c)
	}
	for _, c := range conns {
		got := float64(c.PaceRate)
		if got < 2.4e9 || got > 2.6e9 {
			t.Errorf("rate %v, want 2.5G", c.PaceRate)
		}
	}
}

func TestOracleDetachRedistributes(t *testing.T) {
	eng := sim.New(2)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	o := idealrate.NewOracle(d.Net)
	_, c0 := dial(d, o, 0)
	_, c1 := dial(d, o, 1)
	if float64(c0.PaceRate) > 5.1e9 {
		t.Errorf("two flows: rate %v", c0.PaceRate)
	}
	o.Detach(c1)
	if float64(c0.PaceRate) < 9.9e9 {
		t.Errorf("after detach: rate %v, want full 10G", c0.PaceRate)
	}
}

// Parking lot: the long flow and each one-hop cross flow share every
// link; max-min gives everyone C/2.
func TestOracleParkingLotMaxMin(t *testing.T) {
	eng := sim.New(3)
	pl := topology.NewParkingLot(eng, 3, topology.Config{LinkRate: 10 * unit.Gbps})
	o := idealrate.NewOracle(pl.Net)
	long := transport.NewFlow(pl.Net, pl.LongSrc, pl.LongDst, 0, 0)
	lc := transport.NewConn(long, idealrate.CC{}, transport.ConnConfig{Mode: transport.ModePaced})
	o.Attach(lc)
	var cross []*transport.Conn
	for i := 0; i < 3; i++ {
		f := transport.NewFlow(pl.Net, pl.CrossSrc[i], pl.CrossDst[i], 0, 0)
		c := transport.NewConn(f, idealrate.CC{}, transport.ConnConfig{Mode: transport.ModePaced})
		o.Attach(c)
		cross = append(cross, c)
	}
	for _, c := range append(cross, lc) {
		if got := float64(c.PaceRate); got < 4.9e9 || got > 5.1e9 {
			t.Errorf("max-min rate %v, want 5G", c.PaceRate)
		}
	}
}

// Multi-bottleneck: N flows share link 1 then compete with flow 0 on
// link 3; water-filling gives the cross flows C/N each (if < fair on
// link 3) and flow 0 the rest.
func TestOracleMultiBottleneck(t *testing.T) {
	eng := sim.New(4)
	mb := topology.NewMultiBottleneck(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
	o := idealrate.NewOracle(mb.Net)
	f0 := transport.NewFlow(mb.Net, mb.Flow0Src, mb.Flow0Dst, 0, 0)
	c0 := transport.NewConn(f0, idealrate.CC{}, transport.ConnConfig{Mode: transport.ModePaced})
	o.Attach(c0)
	for i := 0; i < 4; i++ {
		f := transport.NewFlow(mb.Net, mb.Srcs[i], mb.Dsts[i], 0, 0)
		c := transport.NewConn(f, idealrate.CC{}, transport.ConnConfig{Mode: transport.ModePaced})
		o.Attach(c)
	}
	// Max-min on link 3 among 5 flows: 2G each; link 1's 4 flows use 2G
	// each (8G < 10G, not binding); flow 0 also gets 2G.
	if got := float64(c0.PaceRate); got < 1.9e9 || got > 2.1e9 {
		t.Errorf("flow0 rate %v, want 2G (max-min)", c0.PaceRate)
	}
}

// Two exactly tied bottlenecks: the long flow and two cross flows on
// each of a two-link parking lot, C/3 per flow on both links. Whichever
// link freezes first, the other link's cross flows get (C - C/3)/2,
// which need not be C/3 to the last bit of a float64, so the tie must be
// broken the same way every time: 100 recomputations give bit-identical
// rates.
func TestOracleTiedBottlenecksAreDeterministic(t *testing.T) {
	eng := sim.New(6)
	pl := topology.NewParkingLot(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	o := idealrate.NewOracle(pl.Net)
	conn := func(src, dst *netem.Host) *transport.Conn {
		f := transport.NewFlow(pl.Net, src, dst, 0, 0)
		c := transport.NewConn(f, idealrate.CC{}, transport.ConnConfig{Mode: transport.ModePaced})
		o.Attach(c)
		return c
	}
	conns := []*transport.Conn{conn(pl.LongSrc, pl.LongDst)}
	for i := range pl.CrossSrc {
		conns = append(conns, conn(pl.CrossSrc[i], pl.CrossDst[i]), conn(pl.CrossSrc[i], pl.CrossDst[i]))
	}
	rates := func() []unit.Rate {
		var r []unit.Rate
		for _, c := range conns {
			r = append(r, c.PaceRate)
		}
		return r
	}
	want := rates()
	for _, r := range want {
		if got := float64(r); got < 3.3e9 || got > 3.4e9 {
			t.Fatalf("rates %v, want C/3 each", want)
		}
	}
	for i := 0; i < 100; i++ {
		o.Recompute()
		if got := rates(); !slices.Equal(got, want) {
			t.Fatalf("recompute %d: rates %v, first computed %v", i, got, want)
		}
	}
}

func TestOraclePacedFlowsDeliverAtFairShare(t *testing.T) {
	eng := sim.New(5)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	o := idealrate.NewOracle(d.Net)
	f0, _ := dial(d, o, 0)
	f1, _ := dial(d, o, 1)
	eng.RunUntil(20 * sim.Millisecond)
	for _, f := range []*transport.Flow{f0, f1} {
		gbps := float64(f.BytesDelivered) * 8 / 0.02 / 1e9
		if gbps < 4.2 || gbps > 5.0 {
			t.Errorf("delivered %.2f Gbps, want ≈4.75", gbps)
		}
	}
	if d.Net.TotalDataDrops() != 0 {
		t.Error("ideal pacing dropped packets on an uncontended split")
	}
}
