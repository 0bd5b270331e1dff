package core_test

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/invariant"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// TestCreditStopShortfallRecovery is the armed-invariant regression
// test for the Fig 7a CREDIT_STOP shortfall arc: data-class loss eats
// credited packets near the end of a transfer, so the CREDIT_STOP
// reaches the receiver while delivered bytes still fall short of
// Flow.Size. The receiver must NACK, the sender must reopen exactly the
// missing tail (re-request credits, resend, stop again), and the whole
// recovery must stay credit-conserving: every resent packet spends a
// fresh credit, no credit is spent twice, stop/retry timers are
// canceled on completion so the engine drains, and the packet pool
// drains to zero.
//
// This pins the session-timer fixes from the fault-injection PR — the
// dangling stop-retry timer that double-resent after late credits would
// surface here as a credit-conservation violation or a pool leak.
func TestCreditStopShortfallRecovery(t *testing.T) {
	eng := sim.New(7)
	d := topology.NewDumbbell(eng, 1, topology.Config{LinkRate: 10 * unit.Gbps})

	var viols []invariant.Violation
	c := invariant.Attach(d.Net, invariant.Options{
		OnViolation: func(v invariant.Violation) { viols = append(viols, v) },
	})

	const size = 128 * unit.KB
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], size, 0)
	core.Dial(f, core.Config{BaseRTT: 30 * sim.Microsecond})

	// Destroy every data-class packet crossing the bottleneck in a
	// window placed over the tail of the ~105 µs transfer. The credits
	// keep flowing (credit rate 0), so the sender spends them on data
	// that then dies in flight — a guaranteed shortfall at CREDIT_STOP.
	loss := faults.Directive{Kind: "loss", Class: "data", Rate: 1, At: 80 * sim.Microsecond, Dur: 40 * sim.Microsecond}
	if err := (faults.Plan{Directives: []faults.Directive{loss}}).Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}

	eng.Run()

	if !f.Finished {
		t.Fatal("flow did not finish: NACK/shortfall recovery never completed")
	}
	if d.Bottleneck.Stats().FaultDrops == 0 {
		t.Fatal("loss window destroyed no data: the shortfall arc was not exercised")
	}
	for _, v := range c.Finish() {
		viols = append(viols, v)
	}
	for _, v := range viols {
		t.Errorf("invariant violation during shortfall recovery: %v", v)
	}
	if vs := invariant.CheckDrained(d.Net); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("post-drain: %v", v)
		}
	}
}

// TestCreditStopLostStopResend covers the other half of the Fig 7a
// CSTOP_SENT retry arc: the CREDIT_STOP itself is destroyed, stray
// credits keep arriving, and the sender must re-send the stop after a
// full retry window — once, not per credit — so the receiver's pacer
// shuts down and the engine drains.
func TestCreditStopLostStopResend(t *testing.T) {
	eng := sim.New(11)
	d := topology.NewDumbbell(eng, 1, topology.Config{LinkRate: 10 * unit.Gbps})

	// Count control-packet (MinFrame) fault drops on the bottleneck: the
	// checker tees into whatever tracer was installed before Attach.
	var ctrlDrops int
	d.Net.SetTracer(obs.NewTracer(dropCounter{&ctrlDrops, d.Bottleneck.Name()}))

	var viols []invariant.Violation
	c := invariant.Attach(d.Net, invariant.Options{
		OnViolation: func(v invariant.Violation) { viols = append(viols, v) },
	})

	const size = 128 * unit.KB
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], size, 0)
	core.Dial(f, core.Config{BaseRTT: 30 * sim.Microsecond})

	// Ctrl packets ride the data class, so a total data-class loss
	// window timed after the last data leaves the sender swallows the
	// CREDIT_STOP (and any NACK) without touching the flow's payload.
	loss := faults.Directive{Kind: "loss", Class: "data", Rate: 1, At: 108 * sim.Microsecond, Dur: 60 * sim.Microsecond}
	if err := (faults.Plan{Directives: []faults.Directive{loss}}).Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}

	eng.Run()

	if !f.Finished {
		t.Fatal("flow did not finish")
	}
	if ctrlDrops == 0 {
		t.Fatal("loss window destroyed no control packet: the stop-resend arc was not exercised")
	}
	for _, v := range c.Finish() {
		viols = append(viols, v)
	}
	for _, v := range viols {
		t.Errorf("invariant violation during stop-resend recovery: %v", v)
	}
	if vs := invariant.CheckDrained(d.Net); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("post-drain: %v", v)
		}
	}
}

// dropCounter counts MinFrame-sized fault drops (control packets — the
// only data-class traffic that small) on one port.
type dropCounter struct {
	n    *int
	port string
}

func (d dropCounter) Record(ev obs.Event) {
	if ev.Type == obs.EvFaultDrop && ev.Scope == d.port && ev.Bytes == unit.MinFrame {
		*d.n++
	}
}
func (d dropCounter) Close() error { return nil }
