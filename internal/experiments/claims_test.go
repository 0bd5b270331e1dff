package experiments

import (
	"fmt"
	"testing"

	"expresspass/internal/sim"
)

// The paper's evaluation claims, read from typed cells of small-scale runs
// at seed 42. Each claim is a predicate over a table's columns, with a
// tolerance wide enough for the scale; EXPERIMENTS.md gives the paper's
// figure and the measured one next to each. Each predicate is also run
// where it must fail — on the column or rows of the scheme the claim is
// not about — so one that holds on anything shows up here.
//
// fig13's fairness predicate has no such column in its own run (DCTCP is
// fair on one bottleneck too). It was checked to fail with the XP arm's
// §3.1 fair-drop machinery taken out: credit jitter off, credit sizes
// fixed and the credit queues tail-drop.

// claim fails t unless the predicate holds on the run (err is nil) and
// fails on its mutation (mut is not).
func claim(t *testing.T, name string, err, mut error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if mut == nil {
		t.Errorf("%s: holds on its mutation too, so it tests nothing", name)
	}
}

// every is nil when ok holds for column col of every row, and names the
// first row where it does not. No rows is a failure, not a vacuous pass.
func every(t *testing.T, rows []map[string]any, col, want string, ok func(float64) bool) error {
	t.Helper()
	if len(rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for _, r := range rows {
		if v := value(t, r[col]); !ok(v) {
			return fmt.Errorf("row %v: %s = %v, want %s", r, col, v, want)
		}
	}
	return nil
}

// TestClaimFig2Convergence: credit converges before both TCP schemes
// (paper ≈ 25 µs against CUBIC's 47 ms and DCTCP's 70 ms), and every
// row reads a convergence time: none reads 0 or runs out its window.
func TestClaimFig2Convergence(t *testing.T) {
	t.Parallel()
	rows := result(t, "fig2", Params{Scale: 0.12, Seed: 42}).tables()[0].records()
	col := "convergence (" + convRule() + ")"
	at := map[Proto]sim.Duration{}
	for _, r := range rows {
		d, ok := r[col].(sim.Duration)
		if !ok || d <= 0 {
			t.Errorf("%v reads %v, not a convergence time", r["scheme"], r[col])
		}
		at[Proto(r["scheme"].(string))] = d
	}
	if len(at) != 3 {
		t.Fatalf("fig2 rows: %v", rows)
	}
	first := func(p Proto, others ...Proto) error {
		for _, o := range others {
			if at[p] >= at[o] {
				return fmt.Errorf("%s %v ≥ %s %v", p, at[p], o, at[o])
			}
		}
		return nil
	}
	claim(t, "credit converges before CUBIC and DCTCP",
		first(ProtoExpressPass, ProtoCubic, ProtoDCTCP), first(ProtoDCTCP, ProtoCubic, ProtoExpressPass))
}

// TestClaimFig10ParkingLot: feedback holds the lowest link of the parking
// lot near full utilization at every N (paper ≈98%), while naïve credit
// falls with N (paper 60% at N=6) and stays below feedback from N=2 on.
func TestClaimFig10ParkingLot(t *testing.T) {
	t.Parallel()
	rows := result(t, "fig10", Params{Scale: 0.1, Seed: 42}).tables()[0].records()
	naive, feedback := "naive util", "feedback util"

	high := func(col string) error {
		return every(t, rows, col, "≥ 93%", func(u float64) bool { return u >= 93 })
	}
	claim(t, "feedback ≥ 93% at every N", high(feedback), high(naive))

	atSix := func(col string) error {
		return every(t, rows[5:], col, "≤ 65%", func(u float64) bool { return u <= 65 })
	}
	if n := value(t, rows[5]["bottlenecks"]); n != 6 {
		t.Fatalf("row 5 is N=%v, want 6", n)
	}
	claim(t, "naïve ≤ 65% at N=6", atSix(naive), atSix(feedback))

	below := func(lo, hi string) error {
		for _, r := range rows[1:] {
			if value(t, r[lo]) >= value(t, r[hi]) {
				return fmt.Errorf("N=%v: %s %v ≥ %s %v", r["bottlenecks"], lo, r[lo], hi, r[hi])
			}
		}
		return nil
	}
	claim(t, "naïve < feedback for N ≥ 2", below(naive, feedback), below(feedback, naive))
}

// TestClaimFig13StaggeredFlows: XP gives five staggered flows equal
// shares in every phase, on a queue an order of magnitude below DCTCP's
// (paper 18 KB vs 240.7 KB, 13×).
func TestClaimFig13StaggeredFlows(t *testing.T) {
	t.Parallel()
	res := result(t, "fig13", Params{Scale: 0.03, Seed: 42})
	// Each protocol's section is its title, then its table.
	if len(res) != 4 || res[0].(Text).V[0] != ProtoExpressPass || res[2].(Text).V[0] != ProtoDCTCP {
		t.Fatalf("fig13 sections are not expresspass then dctcp: %v", res)
	}
	xp, dctcp := res[1].(*Table).records(), res[3].(*Table).records()

	if err := every(t, xp, "jain", "≥ 0.98", func(j float64) bool { return j >= 0.98 }); err != nil {
		t.Errorf("XP per-phase Jain ≥ 0.98: %v", err)
	}

	peak := func(rows []map[string]any) float64 {
		var m float64
		for _, r := range rows {
			m = max(m, value(t, r["maxQ KB"]))
		}
		return m
	}
	tenfold := func(big, small []map[string]any) error {
		if b, s := peak(big), peak(small); b < 10*s {
			return fmt.Errorf("peak %.4g KB < 10 × %.4g KB", b, s)
		}
		return nil
	}
	claim(t, "DCTCP peak queue ≥ 10× XP's", tenfold(dctcp, xp), tenfold(xp, dctcp))
}

// TestClaimFig15FlowScalability: XP keeps the bottleneck near line rate
// with no data loss and a queue of a few packets at every flow count
// (paper ≈95% utilization, ~1.3 KB); RCP overflows the buffer from 64
// flows on (paper: from ~32).
func TestClaimFig15FlowScalability(t *testing.T) {
	t.Parallel()
	rows := result(t, "fig15", Params{Scale: 0.06, Seed: 42}).tables()[0].records()
	of := func(p Proto) (out []map[string]any) {
		for _, r := range rows {
			if r["proto"] == string(p) {
				out = append(out, r)
			}
		}
		return out
	}
	xp, dctcp, rcp := of(ProtoExpressPass), of(ProtoDCTCP), of(ProtoRCP)

	noDrops := func(rows []map[string]any) error {
		return every(t, rows, "data drops", "0", func(d float64) bool { return d == 0 })
	}
	claim(t, "XP drops no data", noDrops(xp), noDrops(rcp))

	shallow := func(rows []map[string]any) error {
		return every(t, rows, "maxQ KB", "≤ 10", func(q float64) bool { return q <= 10 })
	}
	claim(t, "XP max queue ≤ 10 KB", shallow(xp), shallow(dctcp))

	busy := func(rows []map[string]any) error {
		return every(t, rows, "util Gbps", "≥ 9.0", func(u float64) bool { return u >= 9.0 })
	}
	claim(t, "XP utilization ≥ 9.0 Gbps", busy(xp), busy(rcp))

	overflows := func(rows []map[string]any) error {
		var many []map[string]any
		for _, r := range rows {
			if value(t, r["flows"]) >= 64 {
				many = append(many, r)
			}
		}
		return every(t, many, "data drops", "> 0", func(d float64) bool { return d > 0 })
	}
	claim(t, "RCP drops data from 64 flows on", overflows(rcp), overflows(xp))
}
