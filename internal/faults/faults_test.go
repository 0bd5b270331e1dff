package faults

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

const rtt = 50 * sim.Microsecond

// dumbbellFlows builds an n-pair dumbbell with one long-running flow
// per pair and returns the topology plus flows.
func dumbbellFlows(eng *sim.Engine, n int) (*topology.Dumbbell, []*transport.Flow) {
	d := topology.NewDumbbell(eng, n, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
	})
	var flows []*transport.Flow
	for i := 0; i < n; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
		core.Dial(f, core.Config{BaseRTT: rtt})
		flows = append(flows, f)
	}
	return d, flows
}

// schedule applies the directives to d's network as one plan.
func schedule(t *testing.T, d *topology.Dumbbell, ds ...Directive) {
	t.Helper()
	if err := (Plan{Directives: ds}).Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}
}

// goodput starts a windowed reading of flows: each call of the
// returned func is the payload bytes that arrived across them since the
// previous call (the first: since goodput).
func goodput(flows []*transport.Flow) func() unit.Bytes {
	sum := func() unit.Bytes {
		var b unit.Bytes
		for _, f := range flows {
			b += f.BytesDelivered
		}
		return b
	}
	last := sum()
	return func() unit.Bytes {
		b := sum()
		d := b - last
		last = b
		return d
	}
}

// TestFlapRecovery is the tentpole scenario: flap the dumbbell
// bottleneck mid-run and require goodput to collapse during the outage
// and recover to ≥99% of the pre-fault level afterwards, with
// FaultStart/FaultEnd traced and fault drops accounted.
func TestFlapRecovery(t *testing.T) {
	eng := sim.New(7)
	d, flows := dumbbellFlows(eng, 2)
	ring := obs.NewRingSink(4096)
	d.Net.SetTracer(obs.NewTracer(ring, obs.EvFaultStart, obs.EvFaultEnd, obs.EvFaultDrop))

	const (
		faultAt = 20 * sim.Millisecond
		faultD  = 5 * sim.Millisecond
		window  = sim.Millisecond
	)
	schedule(t, d, Directive{Kind: "flap", At: faultAt, Dur: faultD})

	// Warm up past slow start, then measure windowed goodput.
	eng.RunUntil(10 * sim.Millisecond)
	read := goodput(flows)
	var pre, during, post unit.Bytes
	var preN, postN int
	recovered := sim.Time(-1)
	for w := 0; w < 50; w++ {
		eng.RunFor(window)
		g := read()
		end := eng.Now()
		start := end - window
		switch {
		case end <= faultAt:
			pre += g
			preN++
		case start >= faultAt+window && end <= faultAt+faultD:
			// Skip the first outage window: packets already past the
			// bottleneck at flap time legitimately deliver in it.
			during += g
		case start >= faultAt+faultD:
			if recovered < 0 && preN > 0 &&
				float64(g) >= 0.99*float64(pre)/float64(preN) {
				recovered = end - (faultAt + faultD)
			}
			// Steady state: leave the feedback loop 5ms to ramp back
			// before holding windows to the pre-fault level.
			if start >= faultAt+faultD+5*sim.Millisecond {
				post += g
				postN++
			}
		}
	}
	if preN == 0 || postN == 0 {
		t.Fatalf("windows not distributed around the fault: pre=%d post=%d", preN, postN)
	}
	preMean := float64(pre) / float64(preN)
	if during > 0 {
		t.Errorf("goodput flowed during the outage: %v bytes", during)
	}
	if recovered < 0 {
		t.Fatalf("goodput never recovered to 99%% of pre-fault (pre=%.0f B/window)", preMean)
	}
	if recovered > 10*sim.Time(sim.Millisecond) {
		t.Errorf("recovery took %v, want ≤ 10ms", sim.Duration(recovered))
	}
	postMean := float64(post) / float64(postN)
	if postMean < 0.99*preMean {
		t.Errorf("steady post-fault goodput %.0f < 99%% of pre-fault %.0f", postMean, preMean)
	}

	traced := map[obs.EventType]int{}
	for _, ev := range ring.Events() {
		traced[ev.Type]++
	}
	if n := traced[obs.EvFaultStart]; n != 1 {
		t.Errorf("FaultStart events = %d, want 1", n)
	}
	if n := traced[obs.EvFaultEnd]; n != 1 {
		t.Errorf("FaultEnd events = %d, want 1", n)
	}
	if d.Net.Stats().FaultDrops == 0 {
		t.Error("no fault drops accounted for a 5ms outage")
	}
	if got := traced[obs.EvFaultDrop]; uint64(got) != d.Net.Stats().FaultDrops {
		t.Errorf("traced fault drops %d != accounted %d", got, d.Net.Stats().FaultDrops)
	}
}

// TestFlapPoolBalance drains a flapped run and checks packet
// conservation: every packet destroyed by the fault path must be
// recycled exactly once (satellite: mid-run route rebuilds and queue
// flushes must not unbalance the pool).
func TestFlapPoolBalance(t *testing.T) {
	eng := sim.New(11)
	d := topology.NewDumbbell(eng, 2, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
	})
	var sessions []*core.Session
	for i := 0; i < 2; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 2*unit.MB, 0)
		sessions = append(sessions, core.Dial(f, core.Config{BaseRTT: rtt}))
	}
	schedule(t, d,
		Directive{Kind: "flap", At: 2 * sim.Millisecond, Dur: 1 * sim.Millisecond},
		Directive{Kind: "flap", Target: d.Senders[0].NIC().Name(), At: 6 * sim.Millisecond, Dur: 500 * sim.Microsecond})
	eng.RunUntil(60 * sim.Millisecond)
	for _, s := range sessions {
		if !s.Flow.Finished {
			t.Errorf("flow %d did not finish across flaps", s.Flow.ID)
		}
		s.Stop()
	}
	eng.Run() // drain every remaining event
	if live := d.Net.Pool().Live(); live != 0 {
		t.Errorf("packet pool unbalanced after flapped run: %d live", live)
	}
	if d.Net.Stats().FaultDrops == 0 {
		t.Error("flaps destroyed nothing — fault path not exercised")
	}
}

// TestCreditLossProportional asserts the paper's qualitative claim in
// its clean form: without the feedback loop (the §2 naive scheme), a
// seeded credit-class loss of rate r suppresses ≈ r of the data — one
// lost credit, one missing MTU — and never stalls the flow: no window
// goes silent and no timeout machinery engages.
func TestCreditLossProportional(t *testing.T) {
	run := func(rate float64, naive bool) (g unit.Bytes, silent int) {
		eng := sim.New(3)
		d := topology.NewDumbbell(eng, 1, topology.Config{
			LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
		})
		f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
		core.Dial(f, core.Config{BaseRTT: rtt, Naive: naive})
		flows := []*transport.Flow{f}
		if rate > 0 {
			schedule(t, d, Directive{Kind: "loss", Class: "credit", Rate: rate,
				Target: d.Bottleneck.Peer().Name(), At: 10 * sim.Millisecond, Dur: 40 * sim.Millisecond})
		}
		eng.RunUntil(10 * sim.Millisecond)
		read := goodput(flows)
		for w := 0; w < 40; w++ {
			eng.RunFor(sim.Millisecond)
			gw := read()
			if gw == 0 {
				silent++
			}
			g += gw
		}
		return g, silent
	}
	base, silent0 := run(0, true)
	if silent0 != 0 {
		t.Fatalf("baseline had %d silent windows", silent0)
	}
	for _, rate := range []float64{0.02, 0.10} {
		g, silent := run(rate, true)
		if silent != 0 {
			t.Errorf("rate %.2f: %d silent windows — credit loss must not stall", rate, silent)
		}
		frac := float64(g) / float64(base)
		if frac > 1-rate/3 || frac < 1-2*rate {
			t.Errorf("rate %.2f: naive goodput fraction %.3f outside (%.3f, %.3f)",
				rate, frac, 1-2*rate, 1-rate/3)
		}
	}
	// With the feedback loop on, injected credit loss is absorbed: the
	// controller already budgets for ~10% credit loss, so 5% injected
	// loss costs almost nothing — the self-healing headline.
	fbBase, _ := run(0, false)
	fbLoss, silent := run(0.05, false)
	if silent != 0 {
		t.Errorf("feedback arm: %d silent windows under 5%% credit loss", silent)
	}
	if frac := float64(fbLoss) / float64(fbBase); frac < 0.95 {
		t.Errorf("feedback absorbed only to %.3f of baseline, want ≥0.95", frac)
	}
}

// TestDataLossTriggersRetry asserts the other half of the robustness
// claim: data-class loss is NOT self-healing, so finite flows must
// complete through the CREDIT_STOP→NACK→CREDIT_REQUEST retry arc.
func TestDataLossTriggersRetry(t *testing.T) {
	eng := sim.New(9)
	d := topology.NewDumbbell(eng, 2, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
	})
	const size = 500 * unit.KB
	var sessions []*core.Session
	for i := 0; i < 2; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], size, 0)
		sessions = append(sessions, core.Dial(f, core.Config{BaseRTT: rtt}))
	}
	// 2% data loss across the whole transfer: some credited packets die,
	// so the sender's first CREDIT_STOP arrives with the flow short.
	schedule(t, d, Directive{Kind: "loss", Class: "data", Rate: 0.02, Dur: sim.Second})
	eng.RunUntil(200 * sim.Millisecond)
	wantPkts := uint64(size / unit.MTUPayload)
	for i, s := range sessions {
		if !s.Flow.Finished {
			t.Errorf("flow %d did not finish under data loss (delivered %v of %v)",
				i, s.Flow.BytesDelivered, size)
			continue
		}
		if s.DataSent() <= wantPkts {
			t.Errorf("flow %d sent %d data packets for a %d-packet flow — no retransmission happened",
				i, s.DataSent(), wantPkts)
		}
	}
	if d.Net.Stats().FaultDrops == 0 {
		t.Error("seeded data loss destroyed nothing")
	}
}

// TestStallDefersWithoutLoss stalls the sender host: delivery must
// pause, resume after the stall, and lose nothing (stalled credits are
// deferred, not dropped).
func TestStallDefersWithoutLoss(t *testing.T) {
	eng := sim.New(5)
	d, flows := dumbbellFlows(eng, 1)
	schedule(t, d, Directive{Kind: "stall", Target: d.Senders[0].Name(), At: 20 * sim.Millisecond, Dur: 4 * sim.Millisecond})
	eng.RunUntil(10 * sim.Millisecond)
	read := goodput(flows)
	var pre, post unit.Bytes
	dipped := false
	for w := 0; w < 30; w++ {
		eng.RunFor(sim.Millisecond)
		g := read()
		end := eng.Now()
		switch {
		case end <= 20*sim.Millisecond:
			pre += g
		case end > 21*sim.Millisecond && end <= 24*sim.Millisecond:
			if g == 0 {
				dipped = true
			}
		case end > 26*sim.Millisecond:
			post += g
		}
	}
	if !dipped {
		t.Error("goodput never paused during the host stall")
	}
	if post == 0 {
		t.Error("goodput did not resume after the stall")
	}
	if d.Net.Stats().FaultDrops != 0 {
		t.Errorf("a stall destroyed %d packets — it must only defer", d.Net.Stats().FaultDrops)
	}
	_ = pre
}

// TestFaultTimelineDeterministic runs the same multi-fault timeline
// twice and requires bit-identical outcomes — the property the
// serial-vs-parallel gate builds on.
func TestFaultTimelineDeterministic(t *testing.T) {
	run := func() (delivered unit.Bytes, drops, events uint64) {
		eng := sim.New(21)
		d, flows := dumbbellFlows(eng, 2)
		schedule(t, d,
			Directive{Kind: "flap", At: 5 * sim.Millisecond, Dur: 2 * sim.Millisecond},
			Directive{Kind: "loss", Class: "both", Rate: 0.05, Target: d.Bottleneck.Peer().Name(),
				At: 10 * sim.Millisecond, Dur: 10 * sim.Millisecond},
			Directive{Kind: "stall", Target: d.Senders[1].Name(), At: 22 * sim.Millisecond, Dur: 3 * sim.Millisecond})
		eng.RunUntil(40 * sim.Millisecond)
		for _, f := range flows {
			delivered += f.BytesDelivered
		}
		return delivered, d.Net.Stats().FaultDrops, eng.Executed()
	}
	d1, f1, e1 := run()
	d2, f2, e2 := run()
	if d1 != d2 || f1 != f2 || e1 != e2 {
		t.Errorf("same seed, same timeline, different outcome: (%v,%d,%d) vs (%v,%d,%d)",
			d1, f1, e1, d2, f2, e2)
	}
}

// TestUnidirectionalFailurePathSymmetry pins satellite 3: failing ONE
// direction of a fat-tree core link must remove the whole link from
// routing, keeping every flow's forward and reverse paths identical.
func TestUnidirectionalFailurePathSymmetry(t *testing.T) {
	eng := sim.New(2)
	ft := topology.NewFatTree(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
	net := ft.Net

	// Fail one direction of a core→agg link only.
	victim := ft.Cores[0].Ports()[0]
	victim.Fail() // one direction only; reverse stays healthy
	net.BuildRoutes()

	hosts := ft.Hosts
	for i := range hosts {
		j := (i + len(hosts)/2) % len(hosts)
		src, dst := hosts[i].ID(), hosts[j].ID()
		for flow := packet.FlowID(1); flow <= 8; flow++ {
			fwd := net.TracePorts(src, dst, flow)
			rev := net.TracePorts(dst, src, flow)
			if fwd == nil || len(rev) != len(fwd) {
				t.Fatalf("flow %d %v->%v unroutable or asymmetric after unidirectional failure", flow, src, dst)
			}
			for k, p := range fwd {
				if p.Peer() != rev[len(rev)-1-k] {
					t.Fatalf("asymmetric path for flow %d %v->%v:\n fwd %v\n rev %v",
						flow, src, dst, fwd, rev)
				}
				// Neither direction of the victim link may appear on any path.
				if p == victim || p == victim.Peer() {
					t.Fatalf("path %v crosses the half-failed link %s", fwd, victim.Name())
				}
			}
		}
	}
	victim.Restore()
}
