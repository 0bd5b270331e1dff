package experiments

import (
	"bytes"
	"fmt"
	"io"
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

// TestExtFaultsLossAcceptance checks the loss experiment's contract:
// every arm completes all flows (credit loss is self-healing, data loss
// is recovered), credit-loss arms recover without retransmitting, and
// data-loss arms show the retransmissions that recovered them.
func TestExtFaultsLossAcceptance(t *testing.T) {
	t.Parallel()
	rows := result(t, "ext-faults-loss", Params{Scale: 0.06, Seed: 42}).tables()[0].records()
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, row := range rows {
		arm := row["loss"].(string)
		if done := row["completed"].(Text).V; done[0] != done[1] {
			t.Errorf("arm %s: completed %v, want all flows finished", arm, row["completed"])
		}
		retx := value(t, row["retx pkts"])
		switch {
		case strings.HasPrefix(arm, "credit"):
			if retx != 0 {
				t.Errorf("arm %s: %v retransmissions — credit loss must heal without them", arm, retx)
			}
			if value(t, row["fault drops"]) == 0 {
				t.Errorf("arm %s: no fault drops — loss window did not bite", arm)
			}
		case strings.HasPrefix(arm, "data"):
			if retx == 0 {
				t.Errorf("arm %s: no retransmissions — data loss cannot have been recovered", arm)
			}
		}
	}
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
	ids := []string{"ext-faults-flap", "ext-faults-loss", "ext-faults-stall", "ext-chaos-matrix", "ext-chaos-storm"}
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

// TestPhaseGoodputUnderPayloadCeiling holds every goodput phase that
// ext-chaos-storm and ext-faults-stall read (goodputs) under the
// dumbbell's payload ceiling: full frames on a 10 Gb/s line carry
// 10 × 1460/1538 = 9.493 Gb/s of payload, and ExpressPass, one data
// packet per credit, stays under maxGoodputGbps, what the credits' share
// of the line leaves. A window may gain one segment per flow at its
// edges. A stalled ExpressPass sender spends the credits it received
// during the stall after it, so its post-stall window may reach the
// line's ceiling, and the credit ceiling bounds the stall and post
// windows together.
//
// RCP's pre-storm cell is deviation 12 (EXPERIMENTS.md): it reads 11.46
// Gb/s in every storm. The test holds it as an expected failure and
// fails once that cell is under the ceiling, so whoever fixes it also
// retires the deviation.
func TestPhaseGoodputUnderPayloadCeiling(t *testing.T) {
	t.Parallel()
	p := Params{Scale: 0.05, Seed: 42}
	wire := 10 * float64(unit.MTUPayload) / float64(unit.MaxFrame)
	credit := maxGoodputGbps(10 * unit.Gbps)
	edge := func(flows int, w sim.Duration) float64 { return gbps(unit.Bytes(flows)*unit.MTUPayload, w) }
	under := func(cell string, g, ceiling float64) {
		t.Helper()
		if g > ceiling {
			t.Errorf("%s reads %.4f Gb/s, over the %.4f Gb/s ceiling", cell, g, ceiling)
		}
	}

	// The windows runExtChaosStorm reads at this scale, over its 4 flows.
	storm := []struct {
		col string
		w   sim.Duration
	}{
		{"pre Gbps", p.scaleDur(10*sim.Millisecond, 3*sim.Millisecond)},
		{"storm Gbps", p.scaleDur(60*sim.Millisecond, 16*sim.Millisecond)},
		{"post Gbps", p.scaleDur(20*sim.Millisecond, 6*sim.Millisecond)},
	}
	deviation12 := 0
	for _, row := range result(t, "ext-chaos-storm", p).tables()[0].records() {
		pr := Proto(row["proto"].(string))
		for _, ph := range storm {
			cell := fmt.Sprintf("ext-chaos-storm %v %s %s", row["storm"], pr, ph.col)
			g := value(t, row[ph.col])
			if pr == ProtoRCP && ph.col == "pre Gbps" {
				deviation12++
				if g <= wire+edge(4, ph.w) {
					t.Errorf("%s reads %.4f Gb/s, under the ceiling: deviation 12 is gone; retire it in EXPERIMENTS.md and here", cell, g)
				}
				continue
			}
			under(cell, g, wire+edge(4, ph.w))
			if pr == ProtoExpressPass {
				under(cell, g, credit+edge(4, ph.w))
			}
		}
	}
	if deviation12 != 3 {
		t.Errorf("checked %d RCP pre-storm cells, want one per storm (3)", deviation12)
	}

	// runExtFaultsStall's windows: pre and post as below, the stall as
	// its row reads, over its 2 ExpressPass flows.
	preD := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	postD := p.scaleDur(10*sim.Millisecond, 4*sim.Millisecond)
	for _, row := range result(t, "ext-faults-stall", p).tables()[0].records() {
		stallD := sim.Duration(value(t, row["stall"]) * float64(sim.Millisecond))
		pre, during, post := value(t, row["pre Gbps"]), value(t, row["during Gbps"]), value(t, row["post Gbps"])
		cell := fmt.Sprintf("ext-faults-stall %v", row["stall"])
		under(cell+" pre", pre, credit+edge(2, preD))
		under(cell+" during", during, credit+edge(2, stallD))
		under(cell+" post", post, wire+edge(2, postD))
		both := (during*stallD.Seconds() + post*postD.Seconds()) / (stallD + postD).Seconds()
		under(cell+" during and post", both, credit+edge(4, stallD+postD))
	}
}
