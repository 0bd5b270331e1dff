package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"expresspass/internal/faults"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// TestExtFaultsFlapAcceptance pins the headline robustness claim end to
// end through the experiment harness: the flap experiment's post-fault
// goodput must recover to ≥99% of the pre-fault level in every arm, a
// recovery time must be measured, and the run must emit
// fault_start/fault_end trace events plus the credit-wasted-ratio
// metric through the obs runtime.
func TestExtFaultsFlapAcceptance(t *testing.T) {
	t.Parallel()
	var trace, metrics bytes.Buffer
	rt := obs.NewRuntime(obs.Config{
		Tracer:     obs.NewTracer(obs.NewJSONLSink(&trace)),
		MetricsOut: &metrics,
	})
	res := result(t, "ext-faults-flap", Params{Scale: 0.06, Seed: 42, Obs: rt})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	rows := res.tables()[0].records()
	if len(rows) == 0 {
		t.Fatal("no table rows")
	}
	for _, row := range rows {
		flap := row["flap"]
		if pre, post := value(t, row["pre Gbps"]), value(t, row["post Gbps"]); post < 0.99*pre {
			t.Errorf("flap %v: post-fault goodput %.3f < 99%% of pre-fault %.3f", flap, post, pre)
		}
		if row["recovery"] == "-" {
			t.Errorf("flap %v: goodput never recovered within the measurement window", flap)
		}
		if value(t, row["fault drops"]) == 0 {
			t.Errorf("flap %v: fault destroyed no packets — flap did not bite", flap)
		}
	}

	for _, ev := range []string{"fault_start", "fault_end"} {
		if got := strings.Count(trace.String(), `"ev":"`+ev+`"`); got < len(rows) {
			t.Errorf("trace has %d %s events, want at least one per arm (%d)", got, ev, len(rows))
		}
	}
	if !strings.Contains(metrics.String(), "faults/credit_wasted_ratio") {
		t.Error("metrics CSV lacks the faults/credit_wasted_ratio gauge")
	}
}

// TestExtChaosMatrixLossAcceptance holds ext-chaos-matrix's Bernoulli
// loss arms to §3.1 over every protocol: every loss arm completes every
// flow; under credit loss ExpressPass drops credits and retransmits
// nothing (a destroyed credit suppresses one data packet), and each
// baseline, whose packets are all data, reads its clean row; under data
// loss every protocol retransmits.
func TestExtChaosMatrixLossAcceptance(t *testing.T) {
	t.Parallel()
	rows := result(t, "ext-chaos-matrix", Params{Scale: 0.06, Seed: 42}).tables()[0].records()
	clean := map[any]map[string]any{}
	for _, row := range rows {
		if row["chaos"] == "clean" {
			clean[row["proto"]] = row
		}
	}
	arms := map[string]int{}
	for _, row := range rows {
		arm, pr := row["chaos"].(string), row["proto"]
		if !strings.HasPrefix(arm, "loss-") {
			continue
		}
		arms[arm]++
		cell := fmt.Sprintf("%s %v", arm, pr)
		if done := row["completed"].(Text).V; done[0] != done[1] {
			t.Errorf("%s: completed %v, want all flows finished", cell, row["completed"])
		}
		retx := row["retx"].(unit.Bytes)
		switch {
		case strings.HasPrefix(arm, "loss-credit") && pr == string(ProtoExpressPass):
			if retx != 0 {
				t.Errorf("%s: retransmitted %v — credit loss must heal without retransmission", cell, retx)
			}
			if value(t, row["drops"]) == 0 {
				t.Errorf("%s: no fault drops — the loss did not bite", cell)
			}
		case strings.HasPrefix(arm, "loss-credit"):
			for col, v := range row {
				if col != "chaos" && fmt.Sprint(v) != fmt.Sprint(clean[pr][col]) {
					t.Errorf("%s: %s reads %v, its clean row %v — a baseline carries no credits", cell, col, v, clean[pr][col])
				}
			}
		case retx <= 0:
			t.Errorf("%s: retransmitted %v — data loss cannot have been recovered", cell, retx)
		}
	}
	if len(clean) != len(EvalProtos()) || len(arms) != 4 {
		t.Fatalf("clean rows for %d protocols and %d loss arms, want %d and 4", len(clean), len(arms), len(EvalProtos()))
	}
	for arm, n := range arms {
		if n != len(EvalProtos()) {
			t.Errorf("loss arm %s has %d rows, want one per protocol (%d)", arm, n, len(EvalProtos()))
		}
	}
}

// TestChaosMatrixFCTFloor: no mean FCT in any ext-chaos-matrix cell is
// below what the dumbbell allows a flow of the view's size: its bytes
// at the 9.493 Gb/s payload ceiling of a 10 Gb/s line, plus one base
// RTT (faultRTT). The same predicate over flows four times that size
// must fail.
func TestChaosMatrixFCTFloor(t *testing.T) {
	t.Parallel()
	p := Params{Scale: 0.06, Seed: 42}
	g, _ := matrixView(p)
	rows := result(t, "ext-chaos-matrix", p).tables()[0].records()
	if len(rows) != len(g.cells) {
		t.Fatalf("%d rows, want one per cell (%d)", len(rows), len(g.cells))
	}
	floor := func(size unit.Bytes) error {
		ms := float64(size)*8/(wireGbps*1e6) + faultRTT.Seconds()*1e3
		return every(t, rows, "mean FCT", fmt.Sprintf("≥ %.3fms", ms), func(v float64) bool { return v >= ms })
	}
	claim(t, "no mean FCT under the line's floor", floor(g.size), floor(4*g.size))
}

// TestParamsFaultsReplacesTimeline: a plan in Params.Faults replaces the
// built-in timeline of both experiment families that read it, for that
// run and no other — the plan is a value in the run's Params, so a later
// run without one is back on the built-in timeline with nothing to
// restore.
func TestParamsFaultsReplacesTimeline(t *testing.T) {
	t.Parallel()
	plan, err := faults.ParseSpec("stall@3ms+500us")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ext-faults-stall", "ext-chaos-matrix"} {
		run := func(p Params) string {
			var out bytes.Buffer
			if err := Run(id, p, &out); err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		builtIn := Params{Scale: 0.06, Seed: 42}
		override := builtIn
		override.Faults = plan
		want := run(builtIn)
		got := run(override)
		if got == want {
			t.Errorf("%s: output with Params.Faults set equals the built-in timeline's:\n%s", id, got)
		}
		if again := run(override); again != got {
			t.Errorf("%s: two runs of one plan differ:\n%s\n%s", id, got, again)
		}
		if after := run(builtIn); after != want {
			t.Errorf("%s: a run without a plan changed after one with a plan:\n%s\n%s", id, want, after)
		}
	}
}

// TestFaultsMissingTargetIsAnError: a Params.Faults plan naming a port
// or host the experiment's network lacks makes Run return an error that
// names the target, serial or parallel, in every experiment that reads
// the plan — it is the caller's mistake, not a panic.
func TestFaultsMissingTargetIsAnError(t *testing.T) {
	t.Parallel()
	ids := []string{"ext-faults-flap", "ext-faults-stall", "ext-chaos-matrix", "ext-chaos-storm"}
	for _, tc := range []struct{ spec, target string }{
		{"flap:nosuch@1ms+1ms", `no port matches "nosuch"`},
		{"stall:nohost@1ms+1ms", `no host matches "nohost"`},
	} {
		plan, err := faults.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			for _, procs := range []int{1, 2} {
				err := Run(id, Params{Scale: 0.05, Seed: 42, Faults: plan, Procs: procs}, io.Discard)
				if err == nil || !strings.Contains(err.Error(), tc.target) {
					t.Errorf("%s -procs %d -faults %q: err = %v, want one saying %s", id, procs, tc.spec, err, tc.target)
				}
			}
		}
	}
}

// TestCreditClauseNeedsTheReversePort: a clause without a port aims at
// the bottleneck's forward direction (swL->swR), which carries data and
// no credits on the built-in dumbbells. A credit-class clause there
// changes no output; aimed at the reverse port (swR->swL) it does.
func TestCreditClauseNeedsTheReversePort(t *testing.T) {
	t.Parallel()
	run := func(spec string) string {
		plan, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := Run("ext-chaos-storm", Params{Scale: 0.05, Seed: 42, Faults: plan}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	const stall = "stall@50ms+1ms"
	base := run(stall)
	if got := run(stall + "; loss:credit:0.5@0ms+200ms"); got != base {
		t.Errorf("credit loss on the forward bottleneck changed the output:\n%s\nwant\n%s", got, base)
	}
	if got := run(stall + "; loss:credit:0.5:swR->swL@0ms+200ms"); got == base {
		t.Errorf("credit loss on swR->swL left the output as it was:\n%s", got)
	}
}

// wireGbps is the fault dumbbell's payload ceiling: full frames on a
// 10 Gb/s line carry 10 × 1460/1538 = 9.493 Gb/s of payload.
const wireGbps = 10 * float64(unit.MTUPayload) / float64(unit.MaxFrame)

// TestPhaseGoodputUnderPayloadCeiling holds every goodput window that
// the phase views print under the dumbbell's payload ceiling (wireGbps),
// reading each window's length from the declaration the view runs
// (stormView, stallView, flapView). ExpressPass, one data packet per
// credit, also stays under maxGoodputGbps, what the credits' share of the
// line leaves. A window may gain one segment per flow at its edges.
// ext-faults-flap's post column is the mean of 250 µs bins, each held to
// one bin's edge. A stalled ExpressPass sender spends the credits it
// received during the stall after it, so its post-stall window may reach
// the line's ceiling, and the credit ceiling bounds the stall and post
// windows together.
//
// RCP's pre-storm cell is deviation 12 (EXPERIMENTS.md): it reads 11.46
// Gb/s in every storm. The test holds it as an expected failure and
// fails once that cell is under the ceiling, so whoever fixes it also
// retires the deviation.
func TestPhaseGoodputUnderPayloadCeiling(t *testing.T) {
	t.Parallel()
	p := Params{Scale: 0.05, Seed: 42}
	credit := maxGoodputGbps(10 * unit.Gbps)
	edge := func(flows int, w sim.Duration) float64 { return gbps(unit.Bytes(flows)*unit.MTUPayload, w) }
	under := func(cell string, g, ceiling float64) {
		t.Helper()
		if g > ceiling {
			t.Errorf("%s reads %.4f Gb/s, over the %.4f Gb/s ceiling", cell, g, ceiling)
		}
	}

	deviation12 := 0
	for _, v := range []struct {
		id    string
		view  func(Params) (faultGrid, phases)
		fault string // the fault window's column; "" when none is printed
	}{
		{"ext-chaos-storm", stormView, "storm Gbps"},
		{"ext-faults-stall", stallView, "during Gbps"},
		{"ext-faults-flap", flapView, ""},
	} {
		g, ph := v.view(p)
		rows := result(t, v.id, p).tables()[0].records()
		if len(rows) != len(g.cells) {
			t.Fatalf("%s: %d rows, want one per cell (%d)", v.id, len(rows), len(g.cells))
		}
		post := ph.post
		if ph.bin > 0 {
			post = ph.bin
		}
		for i, row := range rows {
			c := g.cells[i]
			stall := v.id == "ext-faults-stall"
			for _, w := range []struct {
				col string
				d   sim.Duration
			}{{"pre Gbps", ph.pre}, {v.fault, c.a.window}, {"post Gbps", post}} {
				if w.col == "" {
					continue
				}
				cell := fmt.Sprintf("%s %s %s %s", v.id, c.a.label, c.b, w.col)
				got := value(t, row[w.col])
				if c.b == ProtoRCP && w.col == "pre Gbps" {
					deviation12++
					if got <= wireGbps+edge(g.n, w.d) {
						t.Errorf("%s reads %.4f Gb/s, under the ceiling: deviation 12 is gone; retire it in EXPERIMENTS.md and here", cell, got)
					}
					continue
				}
				under(cell, got, wireGbps+edge(g.n, w.d))
				if c.b == ProtoExpressPass && !(stall && w.col == "post Gbps") {
					under(cell, got, credit+edge(g.n, w.d))
				}
			}
			if stall {
				during, post := value(t, row["during Gbps"]), value(t, row["post Gbps"])
				both := (during*c.a.window.Seconds() + post*ph.post.Seconds()) / (c.a.window + ph.post).Seconds()
				under(fmt.Sprintf("%s %s during and post", v.id, c.a.label), both, credit+edge(2*g.n, c.a.window+ph.post))
			}
		}
	}
	if deviation12 != 3 {
		t.Errorf("checked %d RCP pre-storm cells, want one per storm (3)", deviation12)
	}
}

// TestStallActsOnExpressPassAlone: a stall freezes a host's credit
// processing, and core.Session is the only reader of
// Host.CreditStallUntil, so a stall moves an ExpressPass cell's goodput
// and leaves every baseline's as it was — ext-chaos-storm's baseline
// stall-wave rows run with no fault at all. The day transport.Conn
// honours a stall this fails; EXPERIMENTS.md, README's -faults text and
// ParseSpec's comment say the stall is ExpressPass's alone and move
// with it.
func TestStallActsOnExpressPassAlone(t *testing.T) {
	t.Parallel()
	p := Params{Scale: 0.05, Seed: 42}
	g, ph := stallView(p)
	stall := g.cells[len(g.cells)-1].a
	g.cells = cross([]faultPlan{stall, {label: "none", window: stall.window}}, EvalProtos())
	rows, err := g.run(p.withDefaults(), func(c faultCell, fn faultNet) []any {
		gb, _ := ph.read(c, fn)
		return []any{gb}
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(EvalProtos())
	for i, pr := range EvalProtos() {
		stalled, free := rows[i][0].([]float64), rows[n+i][0].([]float64)
		same := slices.Equal(stalled, free)
		switch {
		case pr == ProtoExpressPass && same:
			t.Errorf("a %s stall of s0 left ExpressPass's goodput as it was (%v): the stall did not bite", stall.label, free)
		case pr != ProtoExpressPass && !same:
			t.Errorf("a %s stall of s0 moved %s's goodput from %v to %v: transport.Conn honours a stall now; say so in EXPERIMENTS.md, README and ParseSpec's comment, then here", stall.label, pr, free, stalled)
		}
	}
}
