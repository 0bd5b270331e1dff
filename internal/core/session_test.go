package core_test

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func dumbbell(seed uint64, n int) (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(seed)
	d := topology.NewDumbbell(eng, n, topology.Config{LinkRate: 10 * unit.Gbps})
	return eng, d
}

func TestSessionSingleFlowFCT(t *testing.T) {
	eng, d := dumbbell(1, 2)
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 1*unit.MB, 0)
	sess := core.Dial(f, core.Config{BaseRTT: 30 * sim.Microsecond})
	eng.RunUntil(1 * sim.Second)
	if !f.Finished {
		t.Fatal("flow did not finish")
	}
	// 1 MB at ~9 Gbps goodput plus ~1.5 RTT setup: ~1 ms.
	if fct := f.FCT(); fct < 800*sim.Microsecond || fct > 5*sim.Millisecond {
		t.Errorf("FCT = %v, implausible", fct)
	}
	if sess.DataSent() == 0 || sess.CreditsSent() < sess.DataSent() {
		t.Errorf("credits sent %d < data %d", sess.CreditsSent(), sess.DataSent())
	}
	if d.Net.Stats().DataDrops != 0 {
		t.Error("data drops with a single flow")
	}
}

// TestZeroDataLossInvariant is the paper's headline property: across a
// heavily-overloaded incast with hundreds of flows, ExpressPass must not
// drop a single data packet.
func TestZeroDataLossInvariant(t *testing.T) {
	eng := sim.New(2)
	st := topology.NewStar(eng, 17, topology.Config{LinkRate: 10 * unit.Gbps})
	cfg := core.Config{BaseRTT: 30 * sim.Microsecond}
	var flows []*transport.Flow
	for round := 0; round < 4; round++ {
		for i := 1; i <= 16; i++ {
			f := transport.NewFlow(st.Net, st.Hosts[i], st.Hosts[0],
				256*unit.KB, sim.Duration(round)*2*sim.Millisecond)
			core.Dial(f, cfg)
			flows = append(flows, f)
		}
	}
	eng.RunUntil(1 * sim.Second)
	if drops := st.Net.Stats().DataDrops; drops != 0 {
		t.Errorf("data drops = %d, want 0", drops)
	}
	for i, f := range flows {
		if !f.Finished {
			t.Errorf("flow %d unfinished", i)
		}
	}
	if st.Net.Stats().CreditDrops == 0 {
		t.Error("no credit drops — incast was not contended")
	}
}

func TestCreditStopEndsCredits(t *testing.T) {
	eng, d := dumbbell(3, 2)
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 100*unit.KB, 0)
	sess := core.Dial(f, core.Config{BaseRTT: 30 * sim.Microsecond})
	eng.RunUntil(20 * sim.Millisecond)
	if !f.Finished {
		t.Fatal("flow did not finish")
	}
	sent := sess.CreditsSent()
	eng.RunUntil(100 * sim.Millisecond)
	if sess.CreditsSent() != sent {
		t.Errorf("receiver kept sending credits after CREDIT_STOP: %d → %d",
			sent, sess.CreditsSent())
	}
}

func TestSinglePacketFlowWaste(t *testing.T) {
	// A 1-packet flow at α=1 wastes ≈ one RTT of credits (Fig 8b).
	eng := sim.New(4)
	d := topology.NewDumbbell(eng, 2, topology.Config{
		LinkRate:  10 * unit.Gbps,
		LinkDelay: 16 * sim.Microsecond, // RTT ≈ 100 µs
	})
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 1000, 0)
	sess := core.Dial(f, core.Config{BaseRTT: 100 * sim.Microsecond, Alpha: 1})
	eng.RunUntil(100 * sim.Millisecond)
	if !f.Finished {
		t.Fatal("flow did not finish")
	}
	w := sess.CreditsWasted()
	// ≈ max credit rate (770 kpps) × 100 µs ≈ 77 credits.
	if w < 40 || w > 120 {
		t.Errorf("wasted credits = %d, want ≈77", w)
	}
	if sess.DataSent() != 1 {
		t.Errorf("data packets = %d, want 1", sess.DataSent())
	}
}

func TestLowAlphaReducesWaste(t *testing.T) {
	waste := func(alpha float64) uint64 {
		eng := sim.New(5)
		d := topology.NewDumbbell(eng, 2, topology.Config{
			LinkRate: 10 * unit.Gbps, LinkDelay: 16 * sim.Microsecond,
		})
		f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 1000, 0)
		sess := core.Dial(f, core.Config{BaseRTT: 100 * sim.Microsecond, Alpha: alpha})
		eng.RunUntil(100 * sim.Millisecond)
		return sess.CreditsWasted()
	}
	hi, lo := waste(1), waste(1.0/32)
	if lo >= hi {
		t.Errorf("α=1/32 waste %d not below α=1 waste %d", lo, hi)
	}
	if lo > 6 {
		t.Errorf("α=1/32 waste %d, want ≈2", lo)
	}
}

func TestNaiveModeSendsAtMaxRate(t *testing.T) {
	eng, d := dumbbell(6, 2)
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	sess := core.Dial(f, core.Config{BaseRTT: 30 * sim.Microsecond, Naive: true})
	eng.RunUntil(10 * sim.Millisecond)
	max := (10 * unit.Gbps).Scale(unit.CreditRatio)
	if sess.Rate() != max {
		t.Errorf("naive rate = %v, want max %v", sess.Rate(), max)
	}
	// And the flow saturates the link.
	goodput := float64(f.BytesDelivered) * 8 / 0.01
	if goodput < 8.5e9 {
		t.Errorf("naive goodput %.3g bps", goodput)
	}
}

func TestTwoFlowsFairAndEfficient(t *testing.T) {
	eng, d := dumbbell(7, 2)
	cfg := core.Config{BaseRTT: 100 * sim.Microsecond}
	f0 := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	core.Dial(f0, cfg)
	f1 := transport.NewFlow(d.Net, d.Senders[1], d.Receivers[1], 0, 0)
	core.Dial(f1, cfg)
	eng.RunUntil(20 * sim.Millisecond)
	f0.TakeDeliveredDelta()
	f1.TakeDeliveredDelta()
	eng.RunFor(50 * sim.Millisecond)
	r0 := float64(f0.TakeDeliveredDelta()) * 8 / 0.05 / 1e9
	r1 := float64(f1.TakeDeliveredDelta()) * 8 / 0.05 / 1e9
	if r0+r1 < 8.2 {
		t.Errorf("aggregate %.2f Gbps, want > 8.2", r0+r1)
	}
	ratio := r0 / r1
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("unfair split: %.2f vs %.2f Gbps", r0, r1)
	}
	if d.Net.Stats().DataDrops != 0 {
		t.Error("data drops")
	}
}

func TestBoundedQueueUnderIncast(t *testing.T) {
	eng := sim.New(8)
	st := topology.NewStar(eng, 33, topology.Config{LinkRate: 10 * unit.Gbps})
	cfg := core.Config{BaseRTT: 30 * sim.Microsecond}
	for i := 1; i <= 32; i++ {
		f := transport.NewFlow(st.Net, st.Hosts[i], st.Hosts[0], 0, 0)
		core.Dial(f, cfg)
	}
	eng.RunUntil(50 * sim.Millisecond)
	maxQ := st.DownPort(0).Stats().DataQueueMaxBytes
	// The paper's ns-2 max is ~1.3 KB; allow a loose 20 KB bound (the
	// delay-spread bound for this tiny topology).
	if maxQ > 20*unit.KB {
		t.Errorf("incast max data queue %v, want bounded ≲ 20KB", maxQ)
	}
}

func TestSessionStopCleansUp(t *testing.T) {
	eng, d := dumbbell(9, 2)
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	sess := core.Dial(f, core.Config{BaseRTT: 30 * sim.Microsecond})
	eng.RunUntil(5 * sim.Millisecond)
	sess.Stop()
	delivered := f.BytesDelivered
	eng.RunUntil(10 * sim.Millisecond)
	if f.BytesDelivered != delivered {
		t.Error("delivery continued after Stop")
	}
}

// TestEngineDrainsAfterCompletion pins the timer-hygiene contract of
// the Fig 7a state machine: once a flow finishes and its CREDIT_STOP
// lands, neither endpoint may hold a pending timer, so Engine.Run
// returns promptly instead of idling on a dangling stop-retry event.
func TestEngineDrainsAfterCompletion(t *testing.T) {
	eng, d := dumbbell(6, 1)
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 256*unit.KB, 0)
	rtt := 50 * sim.Microsecond
	core.Dial(f, core.Config{BaseRTT: rtt})
	eng.Run()
	if !f.Finished {
		t.Fatal("flow did not finish")
	}
	// The last events after finish are the stop's flight plus at most a
	// handful of stray credits draining — well under one retry window.
	if lag := eng.Now() - f.FinishTime; lag >= sim.Time(4*rtt) {
		t.Errorf("engine drained %v after finish — a timer dangled past the stop", sim.Duration(lag))
	}
	if pending := eng.Pending(); pending != 0 {
		t.Errorf("%d events still pending after Run returned", pending)
	}
}

// TestDeadPathDrains pins the bounded CREDIT_REQUEST retry: a sender
// whose path is hard-down from the start must give up after its 64
// requests and leave the engine drainable, not re-arm forever.
func TestDeadPathDrains(t *testing.T) {
	eng, d := dumbbell(8, 1)
	// Take the middle link down before the flow starts and reconverge:
	// requests die at the sender-side switch.
	d.Net.SetLinkDown(d.Bottleneck, true)
	d.Net.BuildRoutes()
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 64*unit.KB, 0)
	core.Dial(f, core.Config{BaseRTT: 50 * sim.Microsecond})
	eng.Run() // must return: bounded retries leave no pending events
	if f.Finished {
		t.Fatal("flow finished across a dead path")
	}
	// Every request the sender made died unrouted at the left switch,
	// and it made all 64 the budget allows.
	if got := d.Left.Misrouted; got != 64 {
		t.Errorf("left switch misrouted %d requests, want the budget of 64", got)
	}
}

// TestNackRecoversLostData pins the data-loss retry arc: when credited
// data dies in flight, the receiver's shortfall NACK at CREDIT_STOP
// must reopen the tail and the flow must still complete.
func TestNackRecoversLostData(t *testing.T) {
	eng, d := dumbbell(12, 1)
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 256*unit.KB, 0)
	sess := core.Dial(f, core.Config{BaseRTT: 50 * sim.Microsecond})
	// Destroy 5% of data-class packets on the bottleneck for the whole
	// transfer window (seeded: deterministic for the engine seed).
	loss := faults.Directive{Kind: "loss", Class: "data", Rate: 0.05, Dur: 100 * sim.Millisecond}
	if err := (faults.Plan{Directives: []faults.Directive{loss}}).Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100 * sim.Millisecond)
	if !f.Finished {
		t.Fatalf("flow did not recover from data loss: %v of %v delivered",
			f.BytesDelivered, f.Size)
	}
	want := uint64(f.Size / unit.MTUPayload)
	if sess.DataSent() <= want {
		t.Errorf("data packets sent = %d, want > %d (retransmissions)", sess.DataSent(), want)
	}
}
