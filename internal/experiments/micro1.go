package experiments

import (
	"fmt"

	"expresspass/internal/core"
	"expresspass/internal/netem"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// dataShare is the fraction of link capacity available to data when
// credits are metered (the "max data rate" figures normalize by).
const dataShare = 1 - unit.CreditRatio

// maxGoodputGbps returns the payload-level ceiling of a link: wire
// capacity × data share × payload/frame efficiency.
func maxGoodputGbps(rate unit.Rate) float64 {
	return rate.Gbits() * dataShare * float64(unit.MTUPayload) / float64(unit.MaxFrame)
}

// ---- Fig 2: convergence of naïve credit vs TCP CUBIC vs DCTCP ----

// fig2RTT is fig2's base RTT.
const fig2RTT = 25 * sim.Microsecond

// fig2Arm is one scheme of fig2: its goodput bin and how long the
// joining flow is watched.
type fig2Arm struct {
	name      Proto
	bin, span sim.Duration
}

// fig2Arms are fig2's schemes. ExpressPass bins per RTT; the TCP arms
// bin at 500 µs, so neither reads less than one of its bins.
func fig2Arms(p Params) []fig2Arm {
	return []fig2Arm{
		{ProtoExpressPass, fig2RTT, p.scaleDur(4*sim.Millisecond, 1*sim.Millisecond)},
		{ProtoCubic, 500 * sim.Microsecond, p.scaleDur(250*sim.Millisecond, 150*sim.Millisecond)},
		{ProtoDCTCP, 500 * sim.Microsecond, p.scaleDur(300*sim.Millisecond, 80*sim.Millisecond)},
	}
}

// fig2Rates runs arm a on eng: a second flow joins a steady one on a
// 10G dumbbell, and the two flows' per-bin goodputs come back.
func fig2Rates(eng *sim.Engine, p Params, a fig2Arm) [][]float64 {
	d, env := dumbbell(eng, a.name, 2, 10*unit.Gbps, fig2RTT, topology.Config{}, core.Config{Naive: true})
	// A short min-RTO stands in for SACK-grade loss recovery: without it
	// the displaced flow (cwnd 1, no dupacks) sits out 10 ms per loss and
	// never re-converges.
	env.MinRTO = sim.Millisecond
	// Let flow 0 reach steady state, then start flow 1.
	warm := p.scaleDur(50*sim.Millisecond, 10*sim.Millisecond)
	if a.name == ProtoExpressPass {
		warm = 2 * sim.Millisecond
	}
	return env.join(a.name, d, warm, a.bin, int(a.span/a.bin))
}

func runFig2(p Params) (Result, error) {
	rows := runner.Map(p.sweep(), fig2Arms(p), func(t *runner.T, a fig2Arm) []any {
		fair := fairShare(a.name, 10*unit.Gbps)
		ct, ok := convergence(fig2Rates(t.Engine(p.Seed), p, a), fair, a.bin)
		if !ok {
			return []any{string(a.name), a.bin, text(">%v", a.span), "-", fair}
		}
		return []any{string(a.name), a.bin, ct, float64(ct) / float64(fig2RTT), fair}
	})
	return Result{&Table{Header: []string{"scheme", "bin", "convergence (" + convRule() + ")", "RTTs", "fair Gbps"}, Rows: rows}}, nil
}

// ---- Fig 6: jitter vs fairness; inter-credit gap distribution ----

func runFig6(p Params) (Result, error) {
	// The paper's Fig 6a isolates *credit-drop fairness*: flows send
	// credits at a fixed common rate (the naïve scheme) through one
	// drop-tail credit queue, and only the pacing jitter j varies.
	// On drop-tail queues, perfect pacing (j=0) phase-locks the drop
	// pattern and starves unlucky flows; small jitter restores uniform
	// drops. The last column shows the default random-victim queue
	// (standing in for the paper's randomized credit sizes) with j=0:
	// it breaks total capture but cannot fully undo phase bias alone —
	// jitter remains the primary mechanism, as in the paper.
	tbl := NewTable("flows", "j=0", "j=0.01", "j=0.02", "j=0.04", "j=0.08", "rand-drop j=0")
	type arm struct {
		jitter   float64
		tailDrop bool
	}
	arms := []arm{
		{-1, true}, {0.01, true}, {0.02, true}, {0.04, true}, {0.08, true},
		{-1, false},
	}
	counts := dedupe([]int{16, 64, p.scaleInt(1024, 128)})
	// One trial per (flow count, jitter arm) cell; each count is a row.
	fairness := runner.Map(p.sweep(), cross(counts, arms), func(t *runner.T, c pair[int, arm]) float64 {
		n, a := c.a, c.b
		eng := t.Engine(p.Seed)
		d, env := dumbbell(eng, ProtoExpressPass, n, 10*unit.Gbps, 25*sim.Microsecond,
			topology.Config{Port: netem.PortConfig{CreditTailDrop: a.tailDrop}},
			core.Config{BaseRTT: 100 * sim.Microsecond,
				Naive:                          true,
				DisableCreditSizeRandomization: true,
				JitterFrac:                     a.jitter})
		// Near-synchronized starts.
		flows, _ := env.dialPairs(ProtoExpressPass, d.Senders, d.Receivers, 0, sim.Nanosecond)
		eng.RunUntil(p.scaleDur(20*sim.Millisecond, 8*sim.Millisecond))
		// Measure over enough packets per flow that sampling noise
		// doesn't mask ordering effects (the paper's 1 ms interval,
		// stretched when flows are many).
		meas := sim.Duration(n) * 250 * sim.Microsecond
		if meas < sim.Millisecond {
			meas = sim.Millisecond
		}
		var bytes []float64
		for _, b := range delivered(eng, flows, meas)[0] {
			bytes = append(bytes, float64(b))
		}
		return stats.JainIndex(bytes)
	})
	addPivot(tbl, counts, fairness)

	// (b) inter-credit gap distribution of the pacing model at max rate.
	rng := sim.NewRand(p.Seed)
	ideal := unit.TxTime(unit.MinFrame, (10 * unit.Gbps).Scale(unit.CreditRatio))
	gaps := stats.NewDist()
	for i := 0; i < 10000; i++ {
		gaps.Observe(rng.Jitter(ideal, 0.02).Micros())
	}
	s := gaps.Summary()
	return Result{tbl,
		text("\ninter-credit gap at max credit rate (model, j=0.02):"),
		text("  ideal=%v  p50=%.3fus p99=%.3fus max=%.3fus", ideal, s.P50, s.P99, s.Max),
	}, nil
}

// ---- Fig 8: initial rate vs convergence time and credit waste ----

func runFig8(p Params) (Result, error) {
	rtt := 100 * sim.Microsecond
	const bins = 60 // 1-RTT bins the joining flow is watched for
	alphas := []float64{1, 0.5, 0.25, 0.125, 1.0 / 16, 1.0 / 32}
	rows := runner.Map(p.sweep(), alphas, func(t *runner.T, alpha float64) []any {
		// (a) convergence of a new flow against one established flow.
		eng := t.Engine(p.Seed)
		cfg := core.Config{Alpha: alpha}
		d, env := dumbbell(eng, ProtoExpressPass, 2, 10*unit.Gbps, rtt, topology.Config{}, cfg)
		series := env.join(ProtoExpressPass, d, p.scaleDur(20*sim.Millisecond, 5*sim.Millisecond), rtt, bins)
		ct, ok := convergence(series, fairShare(ProtoExpressPass, 10*unit.Gbps), rtt)

		// (b) credit waste of a single-packet flow on an idle network.
		eng2 := t.Engine(p.Seed + 1)
		d2, env2 := dumbbell(eng2, ProtoExpressPass, 2, 10*unit.Gbps, rtt, topology.Config{}, cfg)
		_, hs := env2.dialPairs(ProtoExpressPass, d2.Senders[:1], d2.Receivers[:1], 1000, 0)
		sess := hs[0].(*core.Session)
		eng2.RunUntil(50 * sim.Millisecond)

		var conv any = text(">%d", bins)
		if ok {
			conv = int(ct / rtt)
		}
		return []any{text("1/%g", 1/alpha), conv, sess.CreditsWasted()}
	})
	return Result{&Table{Header: []string{"alpha", "conv RTTs (bin 1 RTT; " + convRule() + ")", "wasted credits (1-pkt flow)"}, Rows: rows}}, nil
}

// ---- Fig 9: credit queue capacity vs under-utilization ----

func runFig9(p Params) (Result, error) {
	caps := []int{1, 2, 4, 8, 16, 32}
	flows := []int{2, 4, 8, 16, 32}
	tbl := NewTable(append([]string{"flows"}, func() []string {
		var h []string
		for _, c := range caps {
			h = append(h, fmt.Sprintf("cap=%d", c))
		}
		return h
	}()...)...)
	// One trial per (flows, cap) cell; "best" is a cross-trial maximum,
	// so it is computed after the whole grid has run (a barrier the
	// serial code had implicitly).
	utils := runner.Map(p.sweep(), cross(flows, caps), func(t *runner.T, c pair[int, int]) float64 {
		n, cq := c.a, c.b
		eng := t.Engine(p.Seed)
		st := topology.NewStar(eng, n+1, topology.Config{
			LinkRate: 10 * unit.Gbps, Port: netem.PortConfig{CreditQueueCap: cq}})
		cfg := core.Config{BaseRTT: 30 * sim.Microsecond}
		for i := 1; i <= n; i++ {
			f := transport.NewFlow(st.Net, st.Hosts[i], st.Hosts[0], 0, 0)
			core.Dial(f, cfg)
		}
		warm := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
		eng.RunUntil(warm)
		st.Net.ResetStats()
		meas := p.scaleDur(20*sim.Millisecond, 8*sim.Millisecond)
		eng.RunFor(meas)
		return dataUtil(st.DownPort(0), meas)
	})
	best := 0.0
	for _, u := range utils {
		if u > best {
			best = u
		}
	}
	under := make([]Text, len(utils))
	for i, u := range utils {
		under[i] = text("%.2f%%", (best-u)/best*100)
	}
	addPivot(tbl, flows, under)
	return Result{text("under-utilization relative to the best achievable data rate:"), tbl}, nil
}
