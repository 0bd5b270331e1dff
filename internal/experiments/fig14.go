package experiments

import (
	"slices"

	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/unit"
)

// ---- Fig 14: host credit-processing delay and inter-credit gap ----

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Host model validation: credit-processing delay CDF (a); inter-credit gap through a switch (b)",
		Paper: "(a) median 0.38 µs, 99.99%-ile 6.2 µs; (b) RX jitter within ~0.7 µs of TX",
		Run:   runFig14,
	})
}

func runFig14(p Params) (Result, error) {
	// Parts (a) and (b) are independent measurements, so they run as two
	// sweep trials whose sections are stitched in order. Neither dials
	// flows — (a) is pure compute against the SoftNIC delay model, (b)
	// injects raw credit packets — so the lifecycle manager the FCT
	// experiments use does not apply here.
	parts := []func(t *runner.T, p Params) Result{runFig14a, runFig14b}
	secs := runner.Map(p.sweep(), parts, func(t *runner.T, part func(*runner.T, Params) Result) Result {
		return part(t, p)
	})
	return slices.Concat(secs...), nil
}

// runFig14a measures the SoftNIC credit-processing delay model.
func runFig14a(_ *runner.T, p Params) Result {
	rng := sim.NewRand(p.Seed)
	model := netem.SoftNICDelay()
	us := stats.NewDist()
	for i := 0; i < 200000; i++ {
		us.Observe(model.Sample(rng).Micros())
	}
	s := us.Summary()
	return Result{
		text("(a) host credit-processing delay model (SoftNIC):"),
		text("    p50=%.3gus p99=%.3gus p99.9=%.3gus max=%.3gus (paper: median 0.38us, 99.99%%=6.2us)",
			s.P50, s.P99, s.P999, s.Max),
	}
}

// runFig14b measures the inter-credit gap at transmission vs after
// crossing a switch.
func runFig14b(t *runner.T, p Params) Result {
	eng := t.Engine(p.Seed)
	st := topology.NewStar(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	rx := &gapRecorder{host: st.Hosts[1], gaps: stats.NewDist()}
	st.Hosts[1].Register(99, rx)
	// Pace credits at the max credit rate with the default 2% jitter.
	gap := unit.TxTime(unit.MinFrame, (10 * unit.Gbps).Scale(unit.CreditRatio))
	jr := eng.Rand().Fork()
	txGaps := stats.NewDist()
	var lastTx sim.Time
	var emit func()
	n := 0
	emit = func() {
		c := st.Net.Pool().Get()
		c.Kind = packet.Credit
		c.Flow = 99
		c.Src = st.Hosts[0].ID()
		c.Dst = st.Hosts[1].ID()
		c.Wire = unit.MinFrame + unit.Bytes(jr.Intn(9))
		st.Hosts[0].Send(c)
		now := eng.Now()
		if lastTx > 0 {
			txGaps.Observe((now - lastTx).Micros())
		}
		lastTx = now
		if n++; n < 20000 {
			eng.After(jr.Jitter(gap, 0.02), emit)
		}
	}
	emit()
	eng.Run()
	tx := txGaps.Summary()
	rxs := rx.gaps.Summary()
	return Result{
		text("(b) inter-credit gap at max credit rate (ideal %.3gus):", gap.Micros()),
		text("    TX: p50=%.3gus p99=%.3gus sd-ish spread=%.3gus", tx.P50, tx.P99, tx.Max-tx.Min),
		text("    RX: p50=%.3gus p99=%.3gus sd-ish spread=%.3gus (switch adds < ~0.7us)",
			rxs.P50, rxs.P99, rxs.Max-rxs.Min),
	}
}

// gapRecorder measures inter-arrival gaps of credits at a host.
type gapRecorder struct {
	host *netem.Host
	last sim.Time
	gaps *stats.Dist
}

func (g *gapRecorder) OnPacket(p *packet.Packet) {
	now := g.host.Engine().Now()
	if g.last > 0 {
		g.gaps.Observe((now - g.last).Micros())
	}
	g.last = now
	g.host.Pool().Put(p)
}
