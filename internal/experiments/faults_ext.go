package experiments

import (
	"fmt"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/netem"
	"expresspass/internal/sim"
)

// The ext-faults-* views are the robustness grid's (chaos_ext.go)
// ExpressPass rows under one fault at a time, read in phases: the credit
// feedback loop rides out a hard link flap (goodput recovers to the
// pre-fault level once routes reconverge), and a stalled host defers
// credited data without destroying anything. Both meter the credit
// waste and the fault drops (-metrics).

// snapCredits sums the credit/data counters across the ExpressPass
// sessions among handles, as a baseline for wastedRatio.
func snapCredits(handles []Handle) (sent, data uint64) {
	for _, h := range handles {
		if s, ok := h.(*core.Session); ok {
			sent += s.CreditsSent()
			data += s.DataSent()
		}
	}
	return sent, data
}

// wastedRatio is the credit-wasted ratio across sessions since the
// given baseline: the fraction of credits the receivers sent that never
// returned a data packet — dropped by the credit meter (the feedback
// loop's designed ~10% target), destroyed by a fault in flight, or
// arriving at a sender with nothing left to send.
func wastedRatio(sessions []Handle, baseSent, baseData uint64) float64 {
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
func registerFaultMetrics(net *netem.Network, sessions []Handle) {
	r := net.Metrics()
	if r == nil {
		return
	}
	r.Gauge("faults/credit_wasted_ratio", func() float64 { return wastedRatio(sessions, 0, 0) })
	r.Gauge("faults/drops", func() float64 { return float64(net.Stats().FaultDrops) })
}

// xpFaults declares one ExpressPass cell per fault duration on an
// n-pair dumbbell (ExpressPass at its default setting): the directive
// kind at target, opening at ph.faultAt, the fault window as long as
// the fault and its row labelled by it.
func xpFaults(ph phases, n int, kind, target string, durs ...sim.Duration) faultGrid {
	var arms []faultPlan
	for _, d := range durs {
		fault := faults.Directive{Kind: kind, Target: target, At: ph.faultAt(), Dur: d}
		arms = append(arms, faultPlan{fmt.Sprintf("%gms", float64(d)/float64(sim.Millisecond)),
			faults.Plan{Directives: []faults.Directive{fault}}, d})
	}
	return faultGrid{cells: cross(arms, []Proto{ProtoExpressPass}), n: n}
}

// ---- ext-faults-flap: hard link flap with reconvergence ----

// flapView declares ext-faults-flap: a bottleneck flap on 4 pairs, its
// post window a settling window and a read window of w each, read in
// 250 µs bins.
func flapView(p Params) (faultGrid, phases) {
	w := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	ph := phases{warm: sim.Time(w), pre: w, post: 2 * w, bin: 250 * sim.Microsecond}
	return xpFaults(ph, 4, "flap", "", 1*sim.Millisecond, 2*sim.Millisecond, 5*sim.Millisecond), ph
}

func runExtFaultsFlap(p Params) (Result, error) {
	g, ph := flapView(p)
	settle := ph.post / 2
	rows, err := g.run(p, func(c faultCell, fn faultNet) []any {
		registerFaultMetrics(fn.d.Net, fn.hs)
		gb, wasted := ph.read(c, fn)
		// Recovery time is the delay from link-up to the first bin back
		// at ≥99% of the pre-fault rate; post is the mean past settle.
		pre := gb[0]
		var recovery any = "-"
		var postSum, postN float64
		for k, r := range gb[2:] {
			if recovery == "-" && r >= 0.99*pre {
				recovery = text("%.2fms", float64(k+1)*float64(ph.bin)/float64(sim.Millisecond))
			}
			if sim.Duration(k+1)*ph.bin > settle {
				postSum += r
				postN++
			}
		}
		return []any{c.a.label, pre, recovery, postSum / postN, fn.d.Net.Stats().FaultDrops, wasted}
	})
	return Result{&Table{Header: []string{"flap", "pre Gbps", "recovery", "post Gbps", "fault drops", "wasted %"}, Rows: rows}}, err
}

// ---- ext-faults-stall: host credit-processing stall ----

// stallView declares ext-faults-stall: a stall of the first sender, s0,
// on 2 pairs.
func stallView(p Params) (faultGrid, phases) {
	w := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	ph := phases{warm: sim.Time(w), pre: w, post: w}
	return xpFaults(ph, 2, "stall", "s0", 1*sim.Millisecond, 4*sim.Millisecond), ph
}

func runExtFaultsStall(p Params) (Result, error) {
	g, ph := stallView(p)
	rows, err := g.run(p, func(c faultCell, fn faultNet) []any {
		registerFaultMetrics(fn.d.Net, fn.hs)
		gb, _ := ph.read(c, fn)
		return []any{c.a.label, gb[0], gb[1], gb[2], fn.d.Net.Stats().FaultDrops}
	})
	return Result{&Table{Header: []string{"stall", "pre Gbps", "during Gbps", "post Gbps", "fault drops"}, Rows: rows}}, err
}
