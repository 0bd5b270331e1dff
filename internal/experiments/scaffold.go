package experiments

import (
	"fmt"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/lifecycle"
	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// The scaffolds the experiments share, one of each: the §6.3
// ExpressPass setting, the flow-population driver of the FCT
// experiments, the fault dumbbell and its one plan path, the goodput
// window reading, the two-flow join with its per-protocol fair share,
// and the convergence rule. A new experiment builds from these rather
// than writing its own.

// evalXP is the §6.3 ExpressPass setting: α = w_init = 1/16.
func evalXP() core.Config { return core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16} }

// runFlows is the flow-population driver: a lifecycle.Manager dials
// each spec between hosts at its start through pr and retires a flow
// ten base RTTs after it quiesces, while the engine runs until
// deadline. fold sees every dialed flow exactly once, at its retirement
// or after the run for the stragglers, and no spec that was never
// dialed. It returns how many flows finished.
func (e *Env) runFlows(pr Proto, hosts []*netem.Host, specs []workload.FlowSpec, deadline sim.Time,
	fold func(*transport.Flow, lifecycle.Handle)) (finished int) {
	mgr := lifecycle.NewManager(lifecycle.Config{
		Engine: e.Eng,
		Specs:  specs,
		Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
			f := transport.NewFlow(e.Net, hosts[s.Src], hosts[s.Dst], s.Size, s.Start)
			return f, e.Dial(pr, f)
		},
		OnRetire: fold,
		Grace:    10 * e.BaseRTT,
	})
	mgr.Start()
	e.Eng.RunUntil(deadline)
	finished = mgr.Finished()
	mgr.ForEachLive(fold)
	return finished
}

// faultRTT is the fault dumbbell's base RTT.
const faultRTT = 50 * sim.Microsecond

// pairDumbbell builds the robustness experiments' n-pair 10G dumbbell
// with pr's switch features, and one flow per pair dialed through pr
// (ExpressPass with setting xp): flow i carries size bytes (0: it never
// ends) from i·stagger. It returns the flows and their handles.
func pairDumbbell(eng *sim.Engine, pr Proto, xp core.Config, n int, size unit.Bytes,
	stagger sim.Duration) (*topology.Dumbbell, []*transport.Flow, []Handle) {
	tcfg := topology.Config{LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond}
	pr.Features(&tcfg, faultRTT)
	d := topology.NewDumbbell(eng, n, tcfg)
	env := &Env{Eng: eng, Net: d.Net, BaseRTT: faultRTT, XP: xp, MinRTO: sim.Millisecond}
	var flows []*transport.Flow
	var handles []Handle
	for i := 0; i < n; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i],
			size, sim.Time(i)*sim.Time(stagger))
		handles = append(handles, env.Dial(pr, f))
		flows = append(flows, f)
	}
	return d, flows, handles
}

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

// mustParse parses a built-in fault timeline; one that does not parse
// is a bug.
func mustParse(spec string) faults.Plan {
	plan, err := faults.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return plan
}

// delivered is the experiments' one goodput reading. It runs the engine
// through each of the consecutive windows and returns the payload bytes
// that arrived for each flow in each, the difference of BytesDelivered
// across the window: out[w][i] is flow i's in window w. It changes no
// flow. Callers convert to Gbps.
func delivered(eng *sim.Engine, flows []*transport.Flow, windows ...sim.Duration) [][]unit.Bytes {
	last := make([]unit.Bytes, len(flows))
	for i, f := range flows {
		last[i] = f.BytesDelivered
	}
	out := make([][]unit.Bytes, len(windows))
	for w, d := range windows {
		eng.RunFor(d)
		out[w] = make([]unit.Bytes, len(flows))
		for i, f := range flows {
			out[w][i], last[i] = f.BytesDelivered-last[i], f.BytesDelivered
		}
	}
	return out
}

// total is the bytes all flows delivered in one window of delivered.
func total(window []unit.Bytes) unit.Bytes {
	var b unit.Bytes
	for _, v := range window {
		b += v
	}
	return b
}

// join dials a long-running flow of pr on the dumbbell's first pair,
// runs the engine to warm, then dials a second on the second pair and
// returns the two flows' goodputs (Gbps) over bins bins of bin,
// rates[b][i] flow i's in bin b: the convergence experiments' joining
// flow.
func (e *Env) join(pr Proto, d *topology.Dumbbell, warm sim.Time, bin sim.Duration, bins int) [][]float64 {
	f0 := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	e.Dial(pr, f0)
	e.Eng.RunUntil(warm)
	f1 := transport.NewFlow(d.Net, d.Senders[1], d.Receivers[1], 0, e.Eng.Now())
	e.Dial(pr, f1)
	wins := make([]sim.Duration, bins)
	for b := range wins {
		wins[b] = bin
	}
	rates := make([][]float64, bins)
	for b, w := range delivered(e.Eng, []*transport.Flow{f0, f1}, wins...) {
		rates[b] = []float64{gbps(w[0], bin), gbps(w[1], bin)}
	}
	return rates
}

// The convergence rule of fig2, fig8 and fig16: every flow's goodput
// stays within convTol of its fair share for convHold consecutive bins.
// The paper states no definition. A band around the fair share, unlike
// a min/max ratio of the flows, rejects two flows that are equal because
// both are starved, and it reads every scheme on one threshold where a
// ratio needs one per scheme (EXPERIMENTS.md "Convergence rule").
const (
	convTol  = 0.3
	convHold = 2
)

// convergence returns when the per-bin goodputs rates (rates[b][i]: flow
// i's Gbps in bin b, bins of width bin) first meet the convergence rule:
// the end of the first bin of the first run of convHold bins in which
// every flow is within convTol of fair. It is never 0; ok is false if no
// such run fits in the series.
func convergence(rates [][]float64, fair float64, bin sim.Duration) (at sim.Duration, ok bool) {
	run := 0
	for b, flows := range rates {
		run++
		for _, r := range flows {
			if r < fair*(1-convTol) || r > fair*(1+convTol) {
				run = 0
				break
			}
		}
		if run == convHold {
			return sim.Duration(b-convHold+2) * bin, true
		}
	}
	return 0, false
}

// convRule names the convergence rule in a table header.
func convRule() string {
	return fmt.Sprintf("each flow ±%.0f%% of fair, %d bins", convTol*100, convHold)
}

// fairShare is each of two flows' fair goodput (Gbps) on a link of
// rate: half the payload ceiling, which for ExpressPass leaves out the
// credits' share of the line (maxGoodputGbps).
func fairShare(pr Proto, rate unit.Rate) float64 {
	if pr == ProtoExpressPass {
		return maxGoodputGbps(rate) / 2
	}
	return rate.Gbits() * float64(unit.MTUPayload) / float64(unit.MaxFrame) / 2
}
