package invariant

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// TestDuplicatedCreditsCannotDoubleSpend is the armed regression for
// the endpoint dedup windows: a fabric that clones credits in flight
// must not let a sender spend the same credit twice. The duplication
// fault voids the positional (queue/delay) checks, but credit
// conservation and the token-bucket shadow meter stay armed — exactly
// the checks a double-spend would trip.
func TestDuplicatedCreditsCannotDoubleSpend(t *testing.T) {
	eng := sim.New(11)
	d := topology.NewDumbbell(eng, 2, topology.Config{})
	vs, opt := collect()
	c := Attach(d.Net, opt)
	var flows []*transport.Flow
	var sess []*core.Session
	for i := range d.Senders {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 200*unit.KB, 0)
		sess = append(sess, core.Dial(f, core.Config{}))
		flows = append(flows, f)
	}
	// Credits traverse the reverse path; clone almost a third of them.
	apply(t, d, faults.Directive{Kind: "dup", Class: "credit", Rate: 0.3, Target: d.Reverse.Name(), Dur: 100 * sim.Millisecond})
	eng.Run()

	for i, f := range flows {
		if !f.Finished {
			t.Fatalf("flow %d did not finish under credit duplication", i)
		}
	}
	if d.Net.Stats().FaultDups == 0 {
		t.Fatal("scenario failed to duplicate any credits")
	}
	var rejected uint64
	for _, s := range sess {
		rejected += s.CreditsDuplicated()
	}
	if rejected == 0 {
		t.Fatal("sender dedup windows never rejected a cloned credit")
	}
	// Conservation and the token bucket stay armed under duplication: a
	// double-spent credit would show up here as an uncredited send.
	if len(*vs) != 0 {
		t.Fatalf("violations under credit duplication: %v", *vs)
	}
	c.Finish() // positional findings are voided by the dup fault
	if dv := CheckDrained(d.Net); len(dv) != 0 {
		t.Fatalf("pool conservation violated: %v", dv)
	}
}

// TestDuplicatedDataCannotInflateDelivery covers the receiver-side
// window: cloned data frames must not double-count delivered bytes or
// re-trigger the loss fill-in path.
func TestDuplicatedDataCannotInflateDelivery(t *testing.T) {
	eng := sim.New(13)
	d := topology.NewDumbbell(eng, 2, topology.Config{})
	vs, opt := collect()
	c := Attach(d.Net, opt)
	size := 200 * unit.KB
	var flows []*transport.Flow
	var sess []*core.Session
	for i := range d.Senders {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], size, 0)
		sess = append(sess, core.Dial(f, core.Config{}))
		flows = append(flows, f)
	}
	apply(t, d, faults.Directive{Kind: "dup", Class: "data", Rate: 0.3, Dur: 100 * sim.Millisecond})
	eng.Run()

	for i, f := range flows {
		if !f.Finished {
			t.Fatalf("flow %d did not finish under data duplication", i)
		}
		if got := f.BytesDelivered; got != size {
			t.Fatalf("flow %d delivered %v, want exactly %v — clones double-counted", i, got, size)
		}
	}
	var rejected uint64
	for _, s := range sess {
		rejected += s.DataDuplicated()
	}
	if rejected == 0 {
		t.Fatal("receiver dedup windows never rejected a cloned data packet")
	}
	if len(*vs) != 0 {
		t.Fatalf("violations under data duplication: %v", *vs)
	}
	c.Finish()
	if dv := CheckDrained(d.Net); len(dv) != 0 {
		t.Fatalf("pool conservation violated: %v", dv)
	}
}
