package experiments

import (
	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/netem"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// The ext-faults-* experiments drive internal/faults plans over
// the paper's robustness claims: the credit feedback loop rides out hard
// link flaps (goodput recovers to the pre-fault level once routes
// reconverge), credit loss is self-healing (§3.1 — a destroyed credit
// merely suppresses one data packet), data loss is recovered through
// the credit-request/stop state machine (Fig 7a), and a stalled host
// defers credited data without destroying anything. A plan in
// Params.Faults (the -faults CLI flag) replaces each experiment's
// built-in timeline.

const faultRTT = 50 * sim.Microsecond

// applyFaults schedules the run's -faults plan onto the trial's
// dumbbell or, when the run gave none, the experiment's built-in
// timeline. A plan naming a port or host the network lacks is the
// caller's error.
func applyFaults(d *topology.Dumbbell, run, builtin faults.Plan) error {
	if run.Empty() {
		run = builtin
	}
	return run.Apply(d.Net, d.Bottleneck)
}

// faultDumbbell builds the shared scenario: an n-pair 10G dumbbell with
// one long-running dialed flow per pair.
func faultDumbbell(eng *sim.Engine, n int) (*topology.Dumbbell, []*transport.Flow, []*core.Session) {
	d := topology.NewDumbbell(eng, n, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
	})
	var flows []*transport.Flow
	var sessions []*core.Session
	for i := 0; i < n; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
		sessions = append(sessions, core.Dial(f, core.Config{BaseRTT: faultRTT}))
		flows = append(flows, f)
	}
	return d, flows, sessions
}

// snapCredits sums the credit/data counters across sessions, as a
// baseline for wastedRatio.
func snapCredits(sessions []*core.Session) (sent, data uint64) {
	for _, s := range sessions {
		sent += s.CreditsSent()
		data += s.DataSent()
	}
	return sent, data
}

// wastedRatio is the credit-wasted ratio across sessions since the
// given baseline: the fraction of credits the receivers sent that never
// returned a data packet — dropped by the credit meter (the feedback
// loop's designed ~10% target), destroyed by a fault in flight, or
// arriving at a sender with nothing left to send.
func wastedRatio(sessions []*core.Session, baseSent, baseData uint64) float64 {
	sent, data := snapCredits(sessions)
	sent -= baseSent
	data -= baseData
	if sent == 0 || data >= sent {
		return 0
	}
	return 1 - float64(data)/float64(sent)
}

// registerFaultMetrics exposes the fault-facing gauges when a metrics
// CSV was requested: the credit-wasted ratio and the cumulative
// fault-drop count.
func registerFaultMetrics(net *netem.Network, sessions []*core.Session) {
	r := net.Metrics()
	if r == nil {
		return
	}
	r.Gauge("faults/credit_wasted_ratio", func() float64 { return wastedRatio(sessions, 0, 0) })
	r.Gauge("faults/drops", func() float64 { return float64(net.Stats().FaultDrops) })
}

func sumDelivered(flows []*transport.Flow) unit.Bytes {
	var b unit.Bytes
	for _, f := range flows {
		b += f.TakeDeliveredDelta()
	}
	return b
}

// completion counts the finished flows and returns their mean FCT cell,
// "-" when none finished.
func completion(flows []*transport.Flow) (done int, meanFCT any) {
	var sum sim.Duration
	for _, f := range flows {
		if f.Finished {
			done++
			sum += f.FCT()
		}
	}
	if done == 0 {
		return 0, "-"
	}
	return done, text("%.2fms", float64(sum)/float64(done)/float64(sim.Millisecond))
}

// ---- ext-faults-flap: hard link flap with reconvergence ----

func init() {
	register(Experiment{
		ID:    "ext-faults-flap",
		Title: "robustness: bottleneck link flap, reconvergence, and goodput recovery",
		Paper: "goodput recovers to ≥99% of the pre-fault level after the flap; credit waste stays bounded",
		Run:   runExtFaultsFlap,
	})
}

func runExtFaultsFlap(p Params) (Result, error) {
	flaps := []sim.Duration{1 * sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond}
	warm := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	preD := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	settle := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	postD := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	const win = 250 * sim.Microsecond

	rows, err := mapErr(p, flaps, func(t *runner.T, flapD sim.Duration) ([]any, error) {
		eng := t.Engine(p.Seed)
		d, flows, sessions := faultDumbbell(eng, 4)
		registerFaultMetrics(d.Net, sessions)
		faultAt := warm + sim.Time(preD)
		flap := []faults.Directive{{Kind: "flap", At: faultAt, Dur: flapD}}
		if err := applyFaults(d, p.Faults, faults.Plan{Directives: flap}); err != nil {
			return nil, err
		}

		eng.RunUntil(warm)
		sumDelivered(flows)
		baseSent, baseData := snapCredits(sessions)
		eng.RunFor(preD)
		pre := gbps(sumDelivered(flows), preD)

		// Ride out the outage itself, then watch recovery window by
		// window: recovery time is the delay from link-up to the first
		// window back at ≥99% of the pre-fault rate.
		eng.RunUntil(faultAt + flapD)
		sumDelivered(flows)
		var recovery any = "-"
		var postSum float64
		postN := 0
		nWin := int((settle + postD) / win)
		for k := 0; k < nWin; k++ {
			eng.RunFor(win)
			g := gbps(sumDelivered(flows), win)
			if recovery == "-" && g >= 0.99*pre {
				recovery = text("%.2fms", float64(k+1)*float64(win)/float64(sim.Millisecond))
			}
			if sim.Duration(k+1)*win > settle {
				postSum += g
				postN++
			}
		}
		return []any{text("%gms", float64(flapD)/float64(sim.Millisecond)), pre, recovery,
			postSum / float64(postN), d.Net.Stats().FaultDrops,
			100 * wastedRatio(sessions, baseSent, baseData)}, nil
	})
	return Result{&Table{Header: []string{"flap", "pre Gbps", "recovery", "post Gbps", "fault drops", "wasted %"}, Rows: rows}}, err
}

// ---- ext-faults-loss: seeded credit vs data loss ----

func init() {
	register(Experiment{
		ID:    "ext-faults-loss",
		Title: "robustness: seeded credit-class vs data-class loss on the bottleneck",
		Paper: "credit loss is absorbed by the feedback loop; data loss is recovered via request/retry, inflating FCT only",
		Run:   runExtFaultsLoss,
	})
}

func runExtFaultsLoss(p Params) (Result, error) {
	type arm struct {
		name         string
		credit, data float64
	}
	arms := []arm{
		{"baseline", 0, 0},
		{"credit-5%", 0.05, 0},
		{"credit-20%", 0.20, 0},
		{"data-1%", 0, 0.01},
		{"data-5%", 0, 0.05},
	}
	n := p.scaleInt(16, 6)
	size := 256 * unit.KB
	deadline := p.scaleDur(300*sim.Millisecond, 60*sim.Millisecond)

	rows, err := mapErr(p, arms, func(t *runner.T, a arm) ([]any, error) {
		eng := t.Engine(p.Seed)
		d := topology.NewDumbbell(eng, n, topology.Config{
			LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond,
		})
		var flows []*transport.Flow
		var sessions []*core.Session
		for k := 0; k < n; k++ {
			f := transport.NewFlow(d.Net, d.Senders[k], d.Receivers[k],
				size, sim.Time(k)*sim.Time(100*sim.Microsecond))
			sessions = append(sessions, core.Dial(f, core.Config{BaseRTT: faultRTT}))
			flows = append(flows, f)
		}
		registerFaultMetrics(d.Net, sessions)
		var builtin []faults.Directive
		if a.credit > 0 {
			// Credits traverse the reverse path: lose them on the
			// reverse bottleneck's egress.
			builtin = append(builtin, faults.Directive{Kind: "loss", Class: "credit",
				Rate: a.credit, Target: d.Reverse.Name(), Dur: deadline})
		}
		if a.data > 0 {
			builtin = append(builtin, faults.Directive{Kind: "loss", Class: "data",
				Rate: a.data, Dur: deadline})
		}
		if err := applyFaults(d, p.Faults, faults.Plan{Directives: builtin}); err != nil {
			return nil, err
		}
		eng.RunUntil(sim.Time(deadline))
		done, fct := completion(flows)
		// Retransmissions: data packets beyond the minimum needed to
		// carry every flow's payload once.
		minPkts := uint64(n) * uint64((size+unit.MTUPayload-1)/unit.MTUPayload)
		var sent uint64
		for _, s := range sessions {
			sent += s.DataSent()
		}
		retx := uint64(0)
		if sent > minPkts {
			retx = sent - minPkts
		}
		return []any{a.name, text("%d/%d", done, n), fct, retx, d.Net.Stats().FaultDrops}, nil
	})
	return Result{&Table{Header: []string{"loss", "completed", "mean FCT", "retx pkts", "fault drops"}, Rows: rows}}, err
}

// ---- ext-faults-stall: host credit-processing stall ----

func init() {
	register(Experiment{
		ID:    "ext-faults-stall",
		Title: "robustness: sender-side credit-processing stall (GC pause / preemption)",
		Paper: "a stalled host defers credited data without loss; aggregate goodput dips and recovers",
		Run:   runExtFaultsStall,
	})
}

func runExtFaultsStall(p Params) (Result, error) {
	stalls := []sim.Duration{1 * sim.Millisecond, 4 * sim.Millisecond}
	warm := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	preD := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	postD := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)

	rows, err := mapErr(p, stalls, func(t *runner.T, stallD sim.Duration) ([]any, error) {
		eng := t.Engine(p.Seed)
		d, flows, sessions := faultDumbbell(eng, 2)
		registerFaultMetrics(d.Net, sessions)
		faultAt := warm + sim.Time(preD)
		stall := []faults.Directive{{Kind: "stall", Target: d.Senders[0].Name(), At: faultAt, Dur: stallD}}
		if err := applyFaults(d, p.Faults, faults.Plan{Directives: stall}); err != nil {
			return nil, err
		}

		eng.RunUntil(warm)
		sumDelivered(flows)
		eng.RunFor(preD)
		pre := gbps(sumDelivered(flows), preD)
		eng.RunFor(stallD)
		dip := gbps(sumDelivered(flows), stallD)
		eng.RunFor(postD)
		post := gbps(sumDelivered(flows), postD)
		return []any{text("%gms", float64(stallD)/float64(sim.Millisecond)), pre, dip, post,
			d.Net.Stats().FaultDrops}, nil
	})
	return Result{&Table{Header: []string{"stall", "pre Gbps", "during Gbps", "post Gbps", "fault drops"}, Rows: rows}}, err
}
