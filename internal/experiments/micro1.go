package experiments

import (
	"fmt"

	"expresspass/internal/core"
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

// binRates advances the engine bin-by-bin, returning per-flow goodput
// (Gbps) series.
func binRates(eng *sim.Engine, flows []*transport.Flow, bin sim.Duration, bins int) [][]float64 {
	out := make([][]float64, len(flows))
	for b := 0; b < bins; b++ {
		eng.RunFor(bin)
		for i, f := range flows {
			out[i] = append(out[i], gbps(f.TakeDeliveredDelta(), bin))
		}
	}
	return out
}

// converged returns the first bin index from which every flow stays
// within tol of the fair share for at least hold consecutive bins
// (-1 if never).
func converged(series [][]float64, fair, tol float64, hold int) int {
	if len(series) == 0 {
		return -1
	}
	bins := len(series[0])
	run := 0
	for b := 0; b < bins; b++ {
		ok := true
		for _, s := range series {
			if s[b] < fair*(1-tol) || s[b] > fair*(1+tol) {
				ok = false
				break
			}
		}
		if ok {
			run++
			if run >= hold {
				return b - hold + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// equalized returns the first bin from which the flows' per-bin rates
// stay within ratio of each other (min/max >= ratio) while jointly using
// at least half the fair aggregate, for hold consecutive bins (-1 if
// never). It measures equalization robustly even when the aggregate
// oscillates around the limit.
func equalized(series [][]float64, fairTotal, ratio float64, hold int) int {
	if len(series) == 0 {
		return -1
	}
	bins := len(series[0])
	run := 0
	for b := 0; b < bins; b++ {
		lo, hi, sum := series[0][b], series[0][b], 0.0
		for _, s := range series {
			v := s[b]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			sum += v
		}
		if hi > 0 && lo/hi >= ratio && sum >= fairTotal/2 {
			run++
			if run >= hold {
				return b - hold + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// rttDumbbell builds a dumbbell whose base RTT is approximately rtt.
func rttDumbbell(eng *sim.Engine, n int, rate unit.Rate, rtt sim.Duration, cfg topology.Config) *topology.Dumbbell {
	cfg.LinkRate = rate
	cfg.CoreRate = rate
	// Six propagation hops per round trip.
	cfg.LinkDelay = rtt / 6
	return topology.NewDumbbell(eng, n, cfg)
}

// ---- Fig 2: convergence of naïve credit vs TCP CUBIC vs DCTCP ----

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Convergence time: naïve credit vs CUBIC vs DCTCP (10G)",
		Paper: "naïve credit ≈ 25 µs (1 RTT); CUBIC ≈ 47 ms; DCTCP ≈ 70 ms",
		Run:   runFig2,
	})
}

func runFig2(p Params) (Result, error) {
	rtt := 25 * sim.Microsecond
	type arm struct {
		name  Proto
		naive bool
		bin   sim.Duration
		span  sim.Duration
		hold  int
	}
	arms := []arm{
		// XP bins per-RTT and equalizes within ~2 bins; the TCP arms use
		// 500 µs bins and must hold longer to reject slow-start
		// overshoot transients.
		{ProtoExpressPass, true, rtt, p.scaleDur(4*sim.Millisecond, 1*sim.Millisecond), 2},
		{ProtoCubic, false, 500 * sim.Microsecond, p.scaleDur(250*sim.Millisecond, 150*sim.Millisecond), 4},
		{ProtoDCTCP, false, 500 * sim.Microsecond, p.scaleDur(300*sim.Millisecond, 80*sim.Millisecond), 4},
	}
	rows := runner.Map(p.sweep(), arms, func(t *runner.T, a arm) []any {
		eng := t.Engine(p.Seed)
		tcfg := topology.Config{}
		a.name.Features(&tcfg, rtt)
		d := rttDumbbell(eng, 2, 10*unit.Gbps, rtt, tcfg)
		env := &Env{Eng: eng, Net: d.Net, BaseRTT: rtt,
			XP: core.Config{Naive: a.naive},
			// A short min-RTO stands in for SACK-grade loss recovery:
			// without it the displaced flow (cwnd 1, no dupacks) sits
			// out 10 ms per loss and never re-converges.
			MinRTO: sim.Millisecond}
		f0 := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
		env.Dial(a.name, f0)
		// Let flow 0 reach steady state, then start flow 1.
		warm := p.scaleDur(50*sim.Millisecond, 10*sim.Millisecond)
		if a.name == ProtoExpressPass {
			warm = 2 * sim.Millisecond
		}
		eng.RunUntil(warm)
		f1 := transport.NewFlow(d.Net, d.Senders[1], d.Receivers[1], 0, eng.Now())
		env.Dial(a.name, f1)
		f0.TakeDeliveredDelta()
		f1.TakeDeliveredDelta()
		bins := int(a.span / a.bin)
		series := binRates(eng, []*transport.Flow{f0, f1}, a.bin, bins)
		fair := maxGoodputGbps(10*unit.Gbps) / 2
		if a.name != ProtoExpressPass {
			fair = 10 * float64(unit.MTUPayload) / float64(unit.MaxFrame) / 2
		}
		ratio := 0.6
		if a.name != ProtoExpressPass {
			ratio = 0.5 // loss-based sawtooths dip deeper
		}
		cb := equalized(series, 2*fair, ratio, a.hold)
		if cb < 0 {
			return []any{string(a.name), text(">%v", a.span), "-", fair}
		}
		ct := sim.Duration(cb) * a.bin
		return []any{string(a.name), ct, float64(ct) / float64(rtt), fair}
	})
	return Result{&Table{Header: []string{"scheme", "convergence", "RTTs", "fair Gbps"}, Rows: rows}}, nil
}

// ---- Fig 6: jitter vs fairness; inter-credit gap distribution ----

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Credit-pacing jitter vs fairness (a); inter-credit gap CDF (b)",
		Paper: "perfect pacing is unfair at scale; j ≥ 0.01 restores fairness",
		Run:   runFig6,
	})
}

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
		d := rttDumbbell(eng, n, 10*unit.Gbps, 25*sim.Microsecond,
			topology.Config{CreditTailDrop: a.tailDrop})
		cfg := core.Config{BaseRTT: 100 * sim.Microsecond,
			Naive:                          true,
			DisableCreditSizeRandomization: true,
			JitterFrac:                     a.jitter}
		var flows []*transport.Flow
		for i := 0; i < n; i++ {
			f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0,
				sim.Duration(i)*sim.Nanosecond) // near-synchronized starts
			core.Dial(f, cfg)
			flows = append(flows, f)
		}
		eng.RunUntil(p.scaleDur(20*sim.Millisecond, 8*sim.Millisecond))
		for _, f := range flows {
			f.TakeDeliveredDelta()
		}
		// Measure over enough packets per flow that sampling noise
		// doesn't mask ordering effects (the paper's 1 ms interval,
		// stretched when flows are many).
		meas := sim.Duration(n) * 250 * sim.Microsecond
		if meas < sim.Millisecond {
			meas = sim.Millisecond
		}
		eng.RunFor(meas)
		var rates []float64
		for _, f := range flows {
			rates = append(rates, float64(f.TakeDeliveredDelta()))
		}
		return stats.JainIndex(rates)
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

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Initial credit rate: convergence time (a) vs 1-packet-flow credit waste (b)",
		Paper: "α 1→1/32: convergence 2→14 RTTs; wasted credits 80→2",
		Run:   runFig8,
	})
}

func runFig8(p Params) (Result, error) {
	rtt := 100 * sim.Microsecond
	alphas := []float64{1, 0.5, 0.25, 0.125, 1.0 / 16, 1.0 / 32}
	rows := runner.Map(p.sweep(), alphas, func(t *runner.T, alpha float64) []any {
		// (a) convergence of a new flow against one established flow.
		eng := t.Engine(p.Seed)
		d := rttDumbbell(eng, 2, 10*unit.Gbps, rtt, topology.Config{})
		cfg := core.Config{BaseRTT: rtt, Alpha: alpha}
		f0 := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
		core.Dial(f0, cfg)
		eng.RunUntil(p.scaleDur(20*sim.Millisecond, 5*sim.Millisecond))
		f1 := transport.NewFlow(d.Net, d.Senders[1], d.Receivers[1], 0, eng.Now())
		core.Dial(f1, cfg)
		f0.TakeDeliveredDelta()
		f1.TakeDeliveredDelta()
		series := binRates(eng, []*transport.Flow{f0, f1}, rtt, 60)
		fair := maxGoodputGbps(10*unit.Gbps) / 2
		cb := converged(series[1:], fair, 0.3, 2)

		// (b) credit waste of a single-packet flow on an idle network.
		eng2 := t.Engine(p.Seed + 1)
		d2 := rttDumbbell(eng2, 2, 10*unit.Gbps, rtt, topology.Config{})
		fp := transport.NewFlow(d2.Net, d2.Senders[0], d2.Receivers[0], 1000, 0)
		sess := core.Dial(fp, cfg)
		eng2.RunUntil(50 * sim.Millisecond)

		var conv any = "-"
		if cb >= 0 {
			conv = cb + 1
		}
		return []any{text("1/%g", 1/alpha), conv, sess.CreditsWasted()}
	})
	return Result{&Table{Header: []string{"alpha", "conv RTTs", "wasted credits (1-pkt flow)"}, Rows: rows}}, nil
}

// ---- Fig 9: credit queue capacity vs under-utilization ----

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Credit queue capacity vs utilization",
		Paper: "under-utilization <1% from 8-credit queues; worse below",
		Run:   runFig9,
	})
}

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
			LinkRate: 10 * unit.Gbps, CreditQueueCap: cq})
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
