package core_test

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func TestStopMarginReducesWasteWithoutStalling(t *testing.T) {
	run := func(margin unit.Bytes) (uint64, sim.Duration) {
		eng := sim.New(11)
		d := topology.NewDumbbell(eng, 2, topology.Config{
			LinkRate: 10 * unit.Gbps, LinkDelay: 16 * sim.Microsecond,
		})
		f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 1*unit.MB, 0)
		sess := core.Dial(f, core.Config{BaseRTT: 100 * sim.Microsecond, StopMargin: margin})
		eng.RunUntil(200 * sim.Millisecond)
		if !f.Finished {
			t.Fatalf("margin %v: flow did not finish", margin)
		}
		return sess.CreditsWasted(), f.FCT()
	}
	w0, f0 := run(0)
	w1, f1 := run(120 * unit.KB)
	if w1 >= w0 {
		t.Errorf("preemptive stop did not cut waste: %d vs %d", w1, w0)
	}
	// No meaningful FCT penalty (within one RTT).
	if f1 > f0+100*sim.Microsecond {
		t.Errorf("preemptive stop slowed the flow: %v vs %v", f1, f0)
	}
}

func TestStopMarginSmallFlowStillFinishesFast(t *testing.T) {
	// A flow smaller than the margin must not stop credits before it
	// ever ramps (regression: early version stalled 8 RTTs).
	eng := sim.New(12)
	d := topology.NewDumbbell(eng, 2, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 16 * sim.Microsecond,
	})
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 64*unit.KB, 0)
	core.Dial(f, core.Config{BaseRTT: 100 * sim.Microsecond, StopMargin: 120 * unit.KB})
	eng.RunUntil(100 * sim.Millisecond)
	if !f.Finished {
		t.Fatal("did not finish")
	}
	// 64 KB at α=1/2 should complete within a few RTTs, not watchdog
	// timescales.
	if f.FCT() > 2*sim.Millisecond {
		t.Errorf("FCT %v — preemptive stop stalled the flow", f.FCT())
	}
}

// Packet spraying (§7): ExpressPass on a sprayed fat tree must keep the
// zero-loss invariant and high utilization despite reordering, thanks to
// reorder-tolerant credit-loss accounting.
func TestSprayedFabricZeroLoss(t *testing.T) {
	eng := sim.New(13)
	ft := topology.NewFatTree(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
	for _, sw := range ft.Net.Switches() {
		sw.SetSpraying(true)
	}
	hosts := ft.Hosts
	var flows []*transport.Flow
	for i := range hosts {
		j := (i + len(hosts)/2) % len(hosts)
		f := transport.NewFlow(ft.Net, hosts[i], hosts[j], 0, 0)
		core.Dial(f, core.Config{BaseRTT: 60 * sim.Microsecond})
		flows = append(flows, f)
	}
	eng.RunUntil(30 * sim.Millisecond)
	if drops := ft.Net.Stats().DataDrops; drops != 0 {
		t.Errorf("data drops under spraying: %d", drops)
	}
	var total float64
	for _, f := range flows {
		total += float64(f.BytesDelivered) * 8 / 0.03 / 1e9
	}
	// 16 hosts at ~9 Gbps payload each.
	if total < 0.8*16*9 {
		t.Errorf("sprayed aggregate %.1f Gbps, want ≳ 115", total)
	}
}

// Failing a fabric link mid-run must not break running ExpressPass
// flows: routing excludes both directions, path symmetry holds, and no
// data is lost after reconvergence.
func TestFailoverKeepsZeroLoss(t *testing.T) {
	eng := sim.New(14)
	ft := topology.NewFatTree(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
	hosts := ft.Hosts
	var flows []*transport.Flow
	for i := range hosts {
		j := (i + len(hosts)/2) % len(hosts)
		f := transport.NewFlow(ft.Net, hosts[i], hosts[j], 0, 0)
		core.Dial(f, core.Config{BaseRTT: 60 * sim.Microsecond})
		flows = append(flows, f)
	}
	eng.RunUntil(10 * sim.Millisecond)
	ft.ToRUp[0][0].Fail()
	ft.Net.BuildRoutes()
	before := make([]unit.Bytes, len(flows))
	for i, f := range flows {
		before[i] = f.BytesDelivered
	}
	eng.RunUntil(30 * sim.Millisecond)
	if drops := ft.Net.Stats().DataDrops; drops != 0 {
		t.Errorf("data drops after failover: %d", drops)
	}
	for i, f := range flows {
		if f.BytesDelivered == before[i] {
			t.Errorf("flow %d stalled after failover", i)
		}
	}
}

func TestClassTaggedCredits(t *testing.T) {
	eng := sim.New(15)
	d := topology.NewDumbbell(eng, 1, topology.Config{LinkRate: 10 * unit.Gbps})
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 100*unit.KB, 0)
	core.Dial(f, core.Config{BaseRTT: 30 * sim.Microsecond, Class: 1})
	eng.RunUntil(50 * sim.Millisecond)
	if !f.Finished {
		t.Fatal("class-tagged flow did not finish on single-class ports")
	}
}
