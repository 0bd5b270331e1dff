package experiments

import (
	"fmt"
	"strings"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// The ext-chaos-* experiments pin how the credit-scheduled transport
// degrades relative to the §6.3 baselines under the seeded impairment
// suite (internal/netem + internal/faults): correlated and bursty loss,
// duplication, corruption, bounded reordering, and delay/rate jitter,
// plus recurring chaos schedules composed with the every{} grammar.
// Every arm is expressed as a -faults spec string and parsed through
// ParseSpec, so the experiments double as end-to-end coverage of the
// grammar; a Params.Faults plan (-faults) replaces the built-in arm, as
// in the ext-faults-* family.

// chaosDumbbell builds an n-pair 10G dumbbell with the protocol's
// switch features installed and one flow per pair dialed through the
// protocol under test. size==0 makes the flows long-running.
func chaosDumbbell(eng *sim.Engine, pr Proto, n int, size unit.Bytes,
	stagger sim.Duration) (*topology.Dumbbell, []*transport.Flow) {
	tcfg := topology.Config{LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond}
	pr.Features(&tcfg, faultRTT)
	d := topology.NewDumbbell(eng, n, tcfg)
	env := &Env{Eng: eng, Net: d.Net, BaseRTT: faultRTT,
		XP:     core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16},
		MinRTO: sim.Millisecond}
	var flows []*transport.Flow
	for i := 0; i < n; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i],
			size, sim.Time(i)*sim.Time(stagger))
		env.Dial(pr, f)
		flows = append(flows, f)
	}
	return d, flows
}

// applyChaos is applyFaults with the built-in timeline given as a spec
// string; a built-in spec that does not parse is a bug.
func applyChaos(d *topology.Dumbbell, plan faults.Plan, spec string) error {
	var builtin faults.Plan
	if plan.Empty() && spec != "" {
		var err error
		if builtin, err = faults.ParseSpec(spec); err != nil {
			panic(err)
		}
	}
	return applyFaults(d, plan, builtin)
}

// usec renders a duration as integer microseconds for spec strings.
func usec(d sim.Duration) int64 { return int64(d / sim.Microsecond) }

// ---- ext-chaos-matrix: impairment kinds × protocols ----

func init() {
	register(Experiment{
		ID:    "ext-chaos-matrix",
		Title: "chaos: impairment matrix (burst loss, dup, corrupt, reorder, jitter) × protocols",
		Paper: "credit loss is self-healing (§3.1) and duplicated credits cannot double-spend; baselines pay in FCT and retransmissions",
		Run:   runExtChaosMatrix,
	})
}

func runExtChaosMatrix(p Params) (Result, error) {
	deadline := p.scaleDur(100*sim.Millisecond, 30*sim.Millisecond)
	n := p.scaleInt(8, 4)
	size := 128 * unit.KB

	// Each arm is a spec head; the timing suffix arms it for the whole
	// run. Credit-class arms target the reverse bottleneck (swR->swL),
	// the path credits actually traverse.
	type arm struct{ name, head string }
	arms := []arm{
		{"clean", ""},
		{"ge-loss-data", "gemodel:data:0.015:0.25"},
		{"corr-loss-credit", "loss:credit:0.05:corr=0.6:swR->swL"},
		{"dup-both", "dup:both:0.02; dup:both:0.02:swR->swL"},
		{"corrupt-data", "corrupt:data:0.01"},
		{"reorder", "reorder:0.05:20us"},
		{"jitter-delay", "jitter:delay:pareto:5us"},
		{"jitter-rate", "jitter:rate:normal:0.15"},
	}
	protos := EvalProtos()

	rows, err := mapErr(p, cross(arms, protos), func(t *runner.T, c pair[arm, Proto]) ([]any, error) {
		a, pr := c.a, c.b
		eng := t.Engine(p.Seed)
		d, flows := chaosDumbbell(eng, pr, n, size, 50*sim.Microsecond)
		spec := ""
		if a.head != "" {
			spec = armSpec(a.head, 0, deadline)
		}
		if err := applyChaos(d, p.Faults, spec); err != nil {
			return nil, err
		}
		eng.RunUntil(sim.Time(deadline))
		done, fct := completion(flows)
		st := d.Net.Stats()
		return []any{a.name, string(pr), text("%d/%d", done, n), fct,
			st.FaultDrops, st.FaultDups, st.CorruptDrops, st.FaultReorders}, nil
	})
	return Result{&Table{Header: []string{"chaos", "proto", "completed", "mean FCT", "drops", "dups", "corrupt", "reorder"}, Rows: rows}}, err
}

// armSpec appends the '@start+dur' timing to every ';'-separated clause
// of a spec head.
func armSpec(head string, at sim.Time, dur sim.Duration) string {
	var out []string
	for _, c := range strings.Split(head, ";") {
		out = append(out, fmt.Sprintf("%s@%dus+%dus",
			strings.TrimSpace(c), usec(sim.Duration(at)), usec(dur)))
	}
	return strings.Join(out, "; ")
}

// ---- ext-chaos-storm: recurring chaos schedules × protocols ----

func init() {
	register(Experiment{
		ID:    "ext-chaos-storm",
		Title: "chaos: recurring every{} storms (flap train, rolling stalls, loss bursts) × protocols",
		Paper: "the credit loop re-converges within RTTs after each occurrence; goodput recovers to the pre-storm level",
		Run:   runExtChaosStorm,
	})
}

func runExtChaosStorm(p Params) (Result, error) {
	warm := p.scaleDur(10*sim.Millisecond, 3*sim.Millisecond)
	preD := p.scaleDur(10*sim.Millisecond, 3*sim.Millisecond)
	stormD := p.scaleDur(60*sim.Millisecond, 16*sim.Millisecond)
	postD := p.scaleDur(20*sim.Millisecond, 6*sim.Millisecond)
	stormAt := warm + sim.Time(preD)
	period := stormD / 4
	n := 4

	type storm struct{ name, spec string }
	storms := []storm{
		{"flap-train", fmt.Sprintf(
			"every:%dus:count=4{ flap@0us+%dus }@%dus+%dus",
			usec(period), usec(period/8), usec(sim.Duration(stormAt)), usec(stormD))},
		{"stall-wave", fmt.Sprintf(
			"every:%dus:count=4:roll{ stall@0us+%dus }@%dus+%dus",
			usec(period), usec(period/4), usec(sim.Duration(stormAt)), usec(stormD))},
		{"loss-bursts", fmt.Sprintf(
			"every:%dus:count=4:duty=0.25{ gemodel:data:0.08:0.25@0us+1us; gemodel:credit:0.08:0.25:swR->swL@0us+1us }@%dus+%dus",
			usec(period), usec(sim.Duration(stormAt)), usec(stormD))},
	}
	protos := EvalProtos()

	rows, err := mapErr(p, cross(storms, protos), func(t *runner.T, c pair[storm, Proto]) ([]any, error) {
		s, pr := c.a, c.b
		eng := t.Engine(p.Seed)
		d, flows := chaosDumbbell(eng, pr, n, 0, 0)
		if err := applyChaos(d, p.Faults, s.spec); err != nil {
			return nil, err
		}

		eng.RunUntil(warm)
		sumDelivered(flows)
		eng.RunFor(preD)
		pre := gbps(sumDelivered(flows), preD)
		eng.RunFor(stormD)
		dip := gbps(sumDelivered(flows), stormD)
		eng.RunFor(postD)
		post := gbps(sumDelivered(flows), postD)
		return []any{s.name, string(pr), pre, dip, post, d.Net.Stats().FaultDrops}, nil
	})
	return Result{&Table{Header: []string{"storm", "proto", "pre Gbps", "storm Gbps", "post Gbps", "drops"}, Rows: rows}}, err
}
