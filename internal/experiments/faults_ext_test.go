package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"expresspass/internal/faults"
	"expresspass/internal/obs"
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
