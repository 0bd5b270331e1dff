package experiments

import (
	"fmt"
	"strings"

	"expresspass/internal/faults"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
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
	// run, and the spec is parsed once, before the trials. Credit-class
	// arms target the reverse bottleneck (swR->swL), the path credits
	// actually traverse.
	type arm struct {
		name string
		plan faults.Plan
	}
	armed := func(name, head string) arm { return arm{name, mustParse(armSpec(head, 0, deadline))} }
	arms := []arm{
		{name: "clean"},
		armed("ge-loss-data", "gemodel:data:0.015:0.25"),
		armed("corr-loss-credit", "loss:credit:0.05:corr=0.6:swR->swL"),
		armed("dup-both", "dup:both:0.02; dup:both:0.02:swR->swL"),
		armed("corrupt-data", "corrupt:data:0.01"),
		armed("reorder", "reorder:0.05:20us"),
		armed("jitter-delay", "jitter:delay:pareto:5us"),
		armed("jitter-rate", "jitter:rate:normal:0.15"),
	}
	protos := EvalProtos()

	rows, err := mapErr(p, cross(arms, protos), func(t *runner.T, c pair[arm, Proto]) ([]any, error) {
		a, pr := c.a, c.b
		eng := t.Engine(p.Seed)
		d, flows, _ := pairDumbbell(eng, pr, evalXP(), n, size, 50*sim.Microsecond)
		if err := applyFaults(d, p.Faults, a.plan); err != nil {
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

	type storm struct {
		name string
		plan faults.Plan
	}
	storms := []storm{
		{"flap-train", mustParse(fmt.Sprintf(
			"every:%dus:count=4{ flap@0us+%dus }@%dus+%dus",
			usec(period), usec(period/8), usec(sim.Duration(stormAt)), usec(stormD)))},
		{"stall-wave", mustParse(fmt.Sprintf(
			"every:%dus:count=4:roll{ stall@0us+%dus }@%dus+%dus",
			usec(period), usec(period/4), usec(sim.Duration(stormAt)), usec(stormD)))},
		{"loss-bursts", mustParse(fmt.Sprintf(
			"every:%dus:count=4:duty=0.25{ gemodel:data:0.08:0.25@0us+1us; gemodel:credit:0.08:0.25:swR->swL@0us+1us }@%dus+%dus",
			usec(period), usec(sim.Duration(stormAt)), usec(stormD)))},
	}
	protos := EvalProtos()

	rows, err := mapErr(p, cross(storms, protos), func(t *runner.T, c pair[storm, Proto]) ([]any, error) {
		s, pr := c.a, c.b
		eng := t.Engine(p.Seed)
		d, flows, _ := pairDumbbell(eng, pr, evalXP(), n, 0, 0)
		if err := applyFaults(d, p.Faults, s.plan); err != nil {
			return nil, err
		}

		eng.RunUntil(warm)
		g := delivered(eng, flows, preD, stormD, postD)
		return []any{s.name, string(pr), gbps(total(g[0]), preD), gbps(total(g[1]), stormD), gbps(total(g[2]), postD),
			d.Net.Stats().FaultDrops}, nil
	})
	return Result{&Table{Header: []string{"storm", "proto", "pre Gbps", "storm Gbps", "post Gbps", "drops"}, Rows: rows}}, err
}
