package invariant

import (
	"strings"
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// apply schedules the directives on d's network as one plan.
func apply(t *testing.T, d *topology.Dumbbell, ds ...faults.Directive) {
	t.Helper()
	if err := (faults.Plan{Directives: ds}).Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}
}

// TestFaultKindsVoidOrStayArmed runs one single-clause plan per fault
// kind on a live dumbbell with the checker attached, and holds the
// checker's reading of each window's EvFaultStart scope to the rule in
// onFaultStart: kinds that add or delay traffic void the positional
// findings, kinds that only remove packets leave every check armed. A
// renamed trace scope or a new kind lands in the wrong column here.
// Every window opens at 0 and outlasts the run: a flap rebuilds routes
// at both transitions, and a rebuild after time 0 voids the run on its
// own (EvRouteBuild), which would hide the flap's own classification.
func TestFaultKindsVoidOrStayArmed(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		spec, scope string
		void        bool
	}{
		{"flap@0ms+1s", "flap:", false},
		{"loss:both:0.1@0ms+1s", "loss:", false},
		{"gemodel:both:0.1:0.5@0ms+1s", "gemodel:", false},
		{"state:both:0.1@0ms+1s", "state:", false},
		{"corrupt:both:0.1@0ms+1s", "corrupt:", false},
		{"dup:data:0.2@0ms+1s", "dup:", true},
		{"reorder:0.2:10us@0ms+1s", "reorder:", true},
		{"jitter:delay:uniform:2us@0ms+1s", "jitter-delay:", true},
		{"jitter:rate:uniform:0.2@0ms+1s", "jitter-rate:", true},
		{"stall@0ms+1s", "stall:", true},
	} {
		t.Run(strings.TrimSuffix(tc.scope, ":"), func(t *testing.T) {
			t.Parallel()
			eng := sim.New(3)
			d := topology.NewDumbbell(eng, 2, topology.Config{})
			ring := obs.NewRingSink(16)
			d.Net.SetTracer(obs.NewTracer(ring, obs.EvFaultStart))
			c := Attach(d.Net, Options{})
			for i := range d.Senders {
				core.Dial(transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 200*unit.KB, 0), core.Config{})
			}
			plan, err := faults.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Apply(d.Net, d.Bottleneck); err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(2 * sim.Millisecond)
			starts := ring.Events()
			if len(starts) != 1 || !strings.HasPrefix(starts[0].Scope, tc.scope) {
				t.Fatalf("%q opened %v, want one %s… window", tc.spec, starts, tc.scope)
			}
			if c.voided != tc.void {
				t.Errorf("%q: voided = %v, want %v", tc.spec, c.voided, tc.void)
			}
		})
	}
}
