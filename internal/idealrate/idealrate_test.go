package idealrate_test

import (
	"math"
	"slices"
	"testing"

	"expresspass/internal/idealrate"
	"expresspass/internal/netem"
	"expresspass/internal/packet"
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

// tracePaths returns the ports each (src, dst) pair's packets cross,
// the paths MaxMin takes.
func tracePaths(net *netem.Network, pairs ...[2]*netem.Host) [][]*netem.Port {
	var paths [][]*netem.Port
	for i, pr := range pairs {
		paths = append(paths, net.TracePorts(pr[0].ID(), pr[1].ID(), packet.FlowID(i)))
	}
	return paths
}

// Parking lot: the long flow and each one-hop cross flow share every
// link; max-min gives everyone C/2.
func TestOracleParkingLotMaxMin(t *testing.T) {
	eng := sim.New(3)
	pl := topology.NewParkingLot(eng, 3, topology.Config{LinkRate: 10 * unit.Gbps})
	pairs := [][2]*netem.Host{{pl.LongSrc, pl.LongDst}}
	for i := range pl.CrossSrc {
		pairs = append(pairs, [2]*netem.Host{pl.CrossSrc[i], pl.CrossDst[i]})
	}
	for i, r := range idealrate.MaxMin(tracePaths(pl.Net, pairs...)) {
		if r < 4.9e9 || r > 5.1e9 {
			t.Errorf("path %d: max-min rate %g, want 5G", i, r)
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
// broken the same way every time: 100 calls give bit-identical rates.
func TestOracleTiedBottlenecksAreDeterministic(t *testing.T) {
	eng := sim.New(6)
	pl := topology.NewParkingLot(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	pairs := [][2]*netem.Host{{pl.LongSrc, pl.LongDst}}
	for i := range pl.CrossSrc {
		cross := [2]*netem.Host{pl.CrossSrc[i], pl.CrossDst[i]}
		pairs = append(pairs, cross, cross)
	}
	paths := tracePaths(pl.Net, pairs...)
	want := idealrate.MaxMin(paths)
	for _, r := range want {
		if r < 3.3e9 || r > 3.4e9 {
			t.Fatalf("rates %v, want C/3 each", want)
		}
	}
	for i := 0; i < 100; i++ {
		if got := idealrate.MaxMin(paths); !slices.Equal(got, want) {
			t.Fatalf("call %d: rates %v, first computed %v", i, got, want)
		}
	}
}

// A path with no port is bounded by nothing, and a flow alone on a link
// gets all of it.
func TestMaxMinUnboundedPath(t *testing.T) {
	eng := sim.New(7)
	d := topology.NewDumbbell(eng, 1, topology.Config{LinkRate: 10 * unit.Gbps})
	paths := append(tracePaths(d.Net, [2]*netem.Host{d.Senders[0], d.Receivers[0]}), nil)
	got := idealrate.MaxMin(paths)
	if got[0] != 10e9 || !math.IsInf(got[1], 1) {
		t.Fatalf("rates %v, want [1e10 +Inf]", got)
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
	if d.Net.Stats().DataDrops != 0 {
		t.Error("ideal pacing dropped packets on an uncontended split")
	}
}
