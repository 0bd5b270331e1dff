package dcqcn_test

import (
	"testing"

	"expresspass/internal/dcqcn"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func dcqcnNet(seed uint64, n int) (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(seed)
	d := topology.NewDumbbell(eng, n, topology.Config{
		LinkRate:  10 * unit.Gbps,
		LinkDelay: 4 * sim.Microsecond,
		RED:       true,
		PFC:       64 * unit.KB,
	})
	return eng, d
}

func dial(d *topology.Dumbbell, i int) (*transport.Flow, *transport.Conn) {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
	c := transport.NewConn(f, dcqcn.New(), transport.ConnConfig{
		Mode: transport.ModePaced, ECN: true,
	})
	return f, c
}

func TestDCQCNSingleFlowHoldsLineRate(t *testing.T) {
	eng, d := dcqcnNet(1, 2)
	f, _ := dial(d, 0)
	eng.RunUntil(20 * sim.Millisecond)
	f.TakeDeliveredDelta()
	eng.RunFor(30 * sim.Millisecond)
	goodput := float64(f.TakeDeliveredDelta()) * 8 / 0.03
	if goodput < 8.5e9 {
		t.Errorf("steady goodput %.3g bps", goodput)
	}
}

func TestDCQCNSharesAndKeepsQueueModerate(t *testing.T) {
	eng, d := dcqcnNet(2, 4)
	var flows []*transport.Flow
	for i := 0; i < 4; i++ {
		f, _ := dial(d, i)
		flows = append(flows, f)
	}
	eng.RunUntil(50 * sim.Millisecond)
	d.Bottleneck.ResetStats()
	for _, f := range flows {
		f.TakeDeliveredDelta()
	}
	eng.RunFor(50 * sim.Millisecond)
	var total float64
	for _, f := range flows {
		total += float64(f.TakeDeliveredDelta()) * 8 / 0.05 / 1e9
	}
	if total < 7.0 {
		t.Errorf("aggregate %.2f Gbps", total)
	}
	// RED keeps the standing queue between KMin and KMax.
	maxQ := d.Bottleneck.Stats().DataQueueMaxBytes
	if maxQ > 384*unit.KB {
		t.Errorf("queue %v reached capacity — marking not controlling", maxQ)
	}
}

// PFC must make the fabric lossless for DCQCN even under incast, at the
// cost of PAUSE storms — exactly the §1 trade-off ExpressPass avoids.
func TestDCQCNWithPFCIsLossless(t *testing.T) {
	eng := sim.New(3)
	st := topology.NewStar(eng, 17, topology.Config{
		LinkRate: 10 * unit.Gbps,
		RED:      true,
		// Per-ingress pause threshold small enough that 16 ingresses'
		// guarantees plus one RTT of in-flight headroom each fit the
		// shared 2 MB buffer: PFC, not buffering, provides losslessness
		// (without PFC this same incast overflows — see the next test).
		PFC:          8 * unit.KB,
		DataCapacity: 2 * unit.MB,
	})
	var flows []*transport.Flow
	for i := 1; i <= 16; i++ {
		f := transport.NewFlow(st.Net, st.Hosts[i], st.Hosts[0], 1*unit.MB, 0)
		transport.NewConn(f, dcqcn.New(), transport.ConnConfig{
			Mode: transport.ModePaced, ECN: true,
		})
		flows = append(flows, f)
	}
	eng.RunUntil(1 * sim.Second)
	for i, f := range flows {
		if !f.Finished {
			t.Fatalf("flow %d unfinished", i)
		}
	}
	if drops := st.Net.Stats().DataDrops; drops != 0 {
		t.Errorf("drops with PFC: %d", drops)
	}
	var pauses uint64
	for _, p := range st.Net.AllPorts() {
		pauses += p.Stats().PFCPauses
	}
	if pauses == 0 {
		t.Error("incast never triggered PFC — test not exercising pause path")
	}
}

// Without PFC, the same incast on shallow buffers drops: DCQCN needs
// the lossless fabric it was designed for.
func TestDCQCNWithoutPFCDrops(t *testing.T) {
	eng := sim.New(3)
	st := topology.NewStar(eng, 17, topology.Config{
		LinkRate:     10 * unit.Gbps,
		RED:          true,
		DataCapacity: 2 * unit.MB,
	})
	for i := 1; i <= 16; i++ {
		f := transport.NewFlow(st.Net, st.Hosts[i], st.Hosts[0], 1*unit.MB, 0)
		transport.NewConn(f, dcqcn.New(), transport.ConnConfig{
			Mode: transport.ModePaced, ECN: true,
		})
	}
	eng.RunUntil(200 * sim.Millisecond)
	if st.Net.Stats().DataDrops == 0 {
		t.Error("expected incast drops without PFC")
	}
}

func TestDCQCNAlphaDynamics(t *testing.T) {
	eng, d := dcqcnNet(4, 2)
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	cc := dcqcn.New()
	transport.NewConn(f, cc, transport.ConnConfig{Mode: transport.ModePaced, ECN: true})
	eng.RunUntil(30 * sim.Millisecond)
	// A lone flow sees few marks: alpha must have decayed well below 1.
	if cc.Alpha() > 0.5 {
		t.Errorf("alpha = %.3f, want decayed", cc.Alpha())
	}
}
