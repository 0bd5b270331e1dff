package dx_test

import (
	"math"
	"testing"

	"expresspass/internal/dx"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func stepConn(t *testing.T) (*dx.CC, *transport.Conn) {
	t.Helper()
	eng := sim.New(99)
	d := topology.NewDumbbell(eng, 2, topology.Config{})
	cc := dx.New() // V defaults to 4 µs
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	c := transport.NewConn(f, cc, 0)
	return cc, c
}

// TestDXHandComputedSteps walks the Lee et al. update rule
// W ← W·(1 − Q/(Q+V)) + 1 through exactly computed steps. The conn is
// never pumped, so NextSeqNum stays 0 and every ACK closes a window.
func TestDXHandComputedSteps(t *testing.T) {
	cc, c := stepConn(t)
	ack := func(delay sim.Duration) {
		cc.OnAck(c, unit.MTUPayload, &packet.Packet{Ack: 0, Delay: delay}, 0)
	}

	// Step 1: first sample sets the zero-queue baseline (10 µs); with no
	// queuing observed the window grows additively: 10 → 11.
	ack(10 * sim.Microsecond)
	if c.Cwnd != 11 {
		t.Fatalf("step 1 cwnd = %v, want 11", c.Cwnd)
	}

	// Step 2: 14 µs latency means Q = 4 µs = V, so the multiplicative
	// term halves the window: W = 11·(1 − 4/(4+4)) + 1 = 6.5.
	ack(14 * sim.Microsecond)
	if c.Cwnd != 6.5 {
		t.Fatalf("step 2 cwnd = %v, want 6.5", c.Cwnd)
	}

	// Step 3: a new minimum (8 µs) re-baselines; relative to the updated
	// baseline there is no queuing, so growth is additive again: 7.5.
	ack(8 * sim.Microsecond)
	if c.Cwnd != 7.5 {
		t.Fatalf("step 3 cwnd = %v, want 7.5", c.Cwnd)
	}

	// Step 4: Q = 2 µs gives the gentler cut 7.5·(1 − 2/6) + 1 = 6.
	ack(10 * sim.Microsecond)
	if math.Abs(c.Cwnd-6) > 1e-12 {
		t.Fatalf("step 4 cwnd = %v, want 6", c.Cwnd)
	}
}

func TestDXLossEvents(t *testing.T) {
	cc, c := stepConn(t)
	c.Cwnd = 9
	cc.OnFastRetransmit(c)
	if c.Cwnd != 4.5 {
		t.Fatalf("after fast retransmit cwnd = %v, want 4.5", c.Cwnd)
	}
	cc.OnTimeout(c)
	if c.Cwnd != c.MinCwnd {
		t.Fatalf("after timeout cwnd = %v, want MinCwnd %v", c.Cwnd, c.MinCwnd)
	}
	// The halving respects the floor.
	c.Cwnd = 1.2
	cc.OnFastRetransmit(c)
	if c.Cwnd != c.MinCwnd {
		t.Fatalf("fast retransmit went below MinCwnd: %v", c.Cwnd)
	}
}
