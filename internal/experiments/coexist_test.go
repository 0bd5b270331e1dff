package experiments

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/dctcp"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// TestCoexistenceWithUncreditedTraffic documents the §7 "presence of
// other traffic" caveat. ExpressPass data ignores ECN and its credits
// ignore the data queue, so against a reactive protocol the credit-
// clocked traffic holds its full schedule while DCTCP — which sees
// every mark the shared queue generates — retreats toward its minimum
// window. Uncredited traffic also voids the zero-loss guarantee (a few
// drops appear). Both effects are inherent; the paper's proposed
// remedy (reactive compensation at the receiver) is future work.
func TestCoexistenceWithUncreditedTraffic(t *testing.T) {
	eng := sim.New(99)
	tcfg := topology.Config{LinkRate: 10 * unit.Gbps,
		ECNThreshold: dctcp.RecommendedK(10 * unit.Gbps)}
	d := topology.NewDumbbell(eng, 2, tcfg)

	xp := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	core.Dial(xp, core.Config{BaseRTT: 100 * sim.Microsecond})
	tcp := transport.NewFlow(d.Net, d.Senders[1], d.Receivers[1], 0, 0)
	transport.NewConn(tcp, dctcp.New(),
		transport.ConnConfig{ECN: true, MinCwnd: 2})

	eng.RunUntil(30 * sim.Millisecond)
	xp.TakeDeliveredDelta()
	tcp.TakeDeliveredDelta()
	meas := 50 * sim.Millisecond
	eng.RunFor(meas)

	xpG := float64(xp.TakeDeliveredDelta()) * 8 / meas.Seconds() / 1e9
	tcpG := float64(tcp.TakeDeliveredDelta()) * 8 / meas.Seconds() / 1e9
	t.Logf("coexistence: expresspass %.2f Gbps, dctcp %.2f Gbps, data drops %d",
		xpG, tcpG, d.Net.Stats().DataDrops)

	if xpG < 7 {
		t.Errorf("expresspass lost its credit-clocked share: %.2f Gbps", xpG)
	}
	if tcpG < 0.1 {
		t.Errorf("dctcp fully starved: %.2f Gbps", tcpG)
	}
	if total := xpG + tcpG; total < 8 {
		t.Errorf("aggregate collapsed to %.2f Gbps", total)
	}
}

// TestMixedFabricWorkload drives a small realistic mix end to end as a
// harness integration check: all flows finish, ExpressPass keeps zero
// loss, and the run is deterministic.
func TestMixedFabricWorkload(t *testing.T) {
	t.Parallel()
	run := func() (finished int, drops uint64, events uint64) {
		p := Params{Scale: 0.02, Seed: 7}.withDefaults()
		rc := realisticCfg{
			proto: ProtoExpressPass,
			dist:  workload.WebServer(),
			load:  0.6, linkRate: 10 * unit.Gbps,
		}
		res := runner.Map(p.sweep(), []realisticCfg{rc}, func(t *runner.T, rc realisticCfg) realisticResult {
			return runRealistic(t, p, rc)
		})[0]
		return res.finished, res.dataDrops, 0
	}
	f1, d1, _ := run()
	f2, d2, _ := run()
	if f1 == 0 {
		t.Fatal("no flows finished")
	}
	if d1 != 0 {
		t.Errorf("expresspass dropped %d data packets on the fabric", d1)
	}
	if f1 != f2 || d1 != d2 {
		t.Errorf("nondeterministic realistic run: (%d,%d) vs (%d,%d)", f1, d1, f2, d2)
	}
}
