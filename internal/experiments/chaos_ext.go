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

// The robustness family (ext-chaos-* and ext-faults-*) is one grid of
// (plan × protocol) cells on the fault dumbbell, read two ways:
// completion, finite flows read at a deadline (ext-chaos-matrix), and
// phases, never-ending flows read over a warm-up, a pre-fault window,
// the cell's fault window and a post-fault window (ext-chaos-storm,
// ext-faults-flap, ext-faults-stall). Every built-in plan is data
// declared before the trials; the ext-chaos-* arms are -faults spec
// strings parsed through ParseSpec, so they double as end-to-end
// coverage of the grammar. A plan in Params.Faults (the -faults CLI
// flag) replaces every cell's built-in plan.

// faultPlan is one built-in plan of a robustness view under its row
// label; window is the fault window a phase reading reads it over.
type faultPlan struct {
	label  string
	plan   faults.Plan
	window sim.Duration
}

// faultCell is one robustness trial: a plan under a protocol.
type faultCell = pair[faultPlan, Proto]

// faultGrid is one robustness view: its cells, and the dumbbell each
// cell builds (pairDumbbell): n pairs, flows of size bytes (0: never
// ending) from i·stagger, ExpressPass at setting xp.
type faultGrid struct {
	cells   []faultCell
	xp      core.Config
	n       int
	size    unit.Bytes
	stagger sim.Duration
}

// faultNet is one cell's built network, as a reading sees it.
type faultNet struct {
	eng   *sim.Engine
	d     *topology.Dumbbell
	flows []*transport.Flow
	hs    []Handle
}

// run is the cell runner: every cell builds its own dumbbell and takes
// the run's -faults plan or else its own (applyFaults), and read turns
// the network into the cell's row. Rows come back in cell order.
func (g faultGrid) run(p Params, read func(c faultCell, fn faultNet) []any) ([][]any, error) {
	return mapErr(p, g.cells, func(t *runner.T, c faultCell) ([]any, error) {
		eng := t.Engine(p.Seed)
		d, flows, hs := pairDumbbell(eng, c.b, g.xp, g.n, g.size, g.stagger)
		if err := applyFaults(d, p.Faults, c.a.plan); err != nil {
			return nil, err
		}
		return read(c, faultNet{eng, d, flows, hs}), nil
	})
}

// completion is the finite-flow reading at deadline: flows completed,
// their mean FCT ("-" when none finished), the fault counters, and the
// retransmitted payload, what the senders' NICs sent beyond each flow's
// size bytes once (negative when flows did not finish).
func (fn faultNet) completion(deadline sim.Time, size unit.Bytes) []any {
	fn.eng.RunUntil(deadline)
	done, sum, tx := 0, sim.Duration(0), unit.Bytes(0)
	for i, f := range fn.flows {
		if f.Finished {
			done++
			sum += f.FCT()
		}
		tx += fn.d.Senders[i].NIC().Stats().TxPayload
	}
	var fct any = "-"
	if done > 0 {
		fct = text("%.2fms", float64(sum)/float64(done)/float64(sim.Millisecond))
	}
	st := fn.d.Net.Stats()
	return []any{text("%d/%d", done, len(fn.flows)), fct, st.FaultDrops, st.FaultDups, st.CorruptDrops,
		st.FaultReorders, tx - unit.Bytes(len(fn.flows))*size}
}

// phases is the never-ending-flow reading's timeline: the flows warm up
// until warm, then goodput is read over pre, the cell's fault window
// (opening at warm+pre) and post, the last in bins of bin when set.
type phases struct {
	warm           sim.Time
	pre, post, bin sim.Duration
}

// faultAt is when every cell's fault window opens.
func (ph phases) faultAt() sim.Time { return ph.warm + sim.Time(ph.pre) }

// read is the phase reading of one cell. It returns the flows' goodput
// (Gbps) over pre, the cell's fault window, then post or each of its
// bins; and the % of the credits sent from warm on that returned no
// data (wastedRatio; 0 for the baselines, which send none).
func (ph phases) read(c faultCell, fn faultNet) (g []float64, wasted float64) {
	fn.eng.RunUntil(ph.warm)
	sent, data := snapCredits(fn.hs)
	wins := []sim.Duration{ph.pre, c.a.window, ph.post}
	if ph.bin > 0 {
		wins = wins[:2]
		for k := sim.Duration(0); k < ph.post/ph.bin; k++ {
			wins = append(wins, ph.bin)
		}
	}
	for k, w := range delivered(fn.eng, fn.flows, wins...) {
		g = append(g, gbps(total(w), wins[k]))
	}
	return g, 100 * wastedRatio(fn.hs, sent, data)
}

// usec renders a duration as integer microseconds for spec strings.
func usec(d sim.Duration) int64 { return int64(d / sim.Microsecond) }

// armSpec arms every ';'-separated clause of a spec head for the first
// dur of the run.
func armSpec(head string, dur sim.Duration) string {
	var out []string
	for _, c := range strings.Split(head, ";") {
		out = append(out, fmt.Sprintf("%s@0us+%dus", strings.TrimSpace(c), usec(dur)))
	}
	return strings.Join(out, "; ")
}

// ---- ext-chaos-matrix: impairment kinds × protocols ----

// matrixView declares ext-chaos-matrix: every arm is a spec head armed
// for the whole run, read at the returned deadline. Credit-class arms
// target the reverse bottleneck (swR->swL), the path credits traverse.
func matrixView(p Params) (faultGrid, sim.Time) {
	deadline := p.scaleDur(100*sim.Millisecond, 30*sim.Millisecond)
	armed := func(label, head string) faultPlan {
		return faultPlan{label: label, plan: mustParse(armSpec(head, deadline))}
	}
	arms := []faultPlan{
		{label: "clean"},
		armed("loss-credit-5%", "loss:credit:0.05:swR->swL"),
		armed("loss-credit-20%", "loss:credit:0.2:swR->swL"),
		armed("loss-data-1%", "loss:data:0.01"),
		armed("loss-data-5%", "loss:data:0.05"),
		armed("ge-loss-data", "gemodel:data:0.015:0.25"),
		armed("corr-loss-credit", "loss:credit:0.05:corr=0.6:swR->swL"),
		armed("dup-both", "dup:both:0.02; dup:both:0.02:swR->swL"),
		armed("corrupt-data", "corrupt:data:0.01"),
		armed("reorder", "reorder:0.05:20us"),
		armed("jitter-delay", "jitter:delay:pareto:5us"),
		armed("jitter-rate", "jitter:rate:normal:0.15"),
	}
	return faultGrid{cells: cross(arms, EvalProtos()), xp: evalXP(), n: p.scaleInt(8, 4),
		size: 128 * unit.KB, stagger: 50 * sim.Microsecond}, sim.Time(deadline)
}

func runExtChaosMatrix(p Params) (Result, error) {
	g, deadline := matrixView(p)
	rows, err := g.run(p, func(c faultCell, fn faultNet) []any {
		return append([]any{c.a.label, string(c.b)}, fn.completion(deadline, g.size)...)
	})
	return Result{&Table{Header: []string{"chaos", "proto", "completed", "mean FCT", "drops", "dups", "corrupt", "reorder", "retx"}, Rows: rows}}, err
}

// ---- ext-chaos-storm: recurring chaos schedules × protocols ----

// stormView declares ext-chaos-storm: three every{} schedules of four
// occurrences each over one storm window.
func stormView(p Params) (faultGrid, phases) {
	ph := phases{warm: sim.Time(p.scaleDur(10*sim.Millisecond, 3*sim.Millisecond)),
		pre: p.scaleDur(10*sim.Millisecond, 3*sim.Millisecond), post: p.scaleDur(20*sim.Millisecond, 6*sim.Millisecond)}
	stormD := p.scaleDur(60*sim.Millisecond, 16*sim.Millisecond)
	period := stormD / 4
	every := func(label, opts, inner string) faultPlan {
		return faultPlan{label, mustParse(fmt.Sprintf("every:%dus:%s{ %s }@%dus+%dus",
			usec(period), opts, inner, usec(sim.Duration(ph.faultAt())), usec(stormD))), stormD}
	}
	arms := []faultPlan{
		every("flap-train", "count=4", fmt.Sprintf("flap@0us+%dus", usec(period/8))),
		every("stall-wave", "count=4:roll", fmt.Sprintf("stall@0us+%dus", usec(period/4))),
		every("loss-bursts", "count=4:duty=0.25", "gemodel:data:0.08:0.25@0us+1us; gemodel:credit:0.08:0.25:swR->swL@0us+1us"),
	}
	return faultGrid{cells: cross(arms, EvalProtos()), xp: evalXP(), n: 4}, ph
}

func runExtChaosStorm(p Params) (Result, error) {
	g, ph := stormView(p)
	rows, err := g.run(p, func(c faultCell, fn faultNet) []any {
		gb, _ := ph.read(c, fn)
		return []any{c.a.label, string(c.b), gb[0], gb[1], gb[2], fn.d.Net.Stats().FaultDrops}
	})
	return Result{&Table{Header: []string{"storm", "proto", "pre Gbps", "storm Gbps", "post Gbps", "drops"}, Rows: rows}}, err
}
