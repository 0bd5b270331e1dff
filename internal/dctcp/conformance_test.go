package dctcp_test

import (
	"math"
	"testing"

	"expresspass/internal/dctcp"
	"expresspass/internal/packet"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// stepConn builds a connection the steps drive by hand: the engine
// never runs, so every state change comes from the explicit OnAck /
// loss calls below and can be checked against paper arithmetic.
func stepConn(t *testing.T) (*dctcp.CC, *transport.Conn) {
	t.Helper()
	_, d := net10G(99, 2)
	cc := dctcp.New() // g = 1/16, α₀ = 1
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	c := transport.NewConn(f, cc, 0)
	return cc, c
}

// TestDCTCPStartsAtAlphaOne pins the conservative start both the DCTCP
// and the HULL baseline run with: α₀ = 1, so the first marked window
// cuts the window in half.
func TestDCTCPStartsAtAlphaOne(t *testing.T) {
	if a := dctcp.New().Alpha(); a != 1 {
		t.Fatalf("initial alpha = %v, want 1", a)
	}
}

// TestDCTCPHandComputedSteps walks the Alizadeh et al. update rule
// α ← (1−g)α + g·F, W ← W(1−α/2) through exactly computed steps.
// With the conn never pumped, NextSeqNum stays 0 and every ACK closes
// an observation window, so each step, one segment acked, applies one
// full update.
func TestDCTCPHandComputedSteps(t *testing.T) {
	cc, c := stepConn(t)
	ack := func(ecn bool) {
		cc.OnAck(c, unit.MTUPayload, &packet.Packet{Ack: 0, ECNEcho: ecn}, 0)
	}

	// Step 1: clean window. F = 0, so α decays by (1−g) = 15/16 and the
	// window is not cut; slow start adds the acked packet: 10 → 11.
	ack(false)
	if cc.Alpha() != 0.9375 {
		t.Fatalf("step 1 alpha = %v, want 15/16", cc.Alpha())
	}
	if c.Cwnd != 11 {
		t.Fatalf("step 1 cwnd = %v, want 11", c.Cwnd)
	}

	// Step 2: fully marked window. F = 1:
	//   α = (15/16)·0.9375 + (1/16)·1 = 0.94140625
	//   W = 11·(1 − α/2)             = 5.822265625, then ssthresh = W so
	// growth switches to congestion avoidance: W += 1/W.
	ack(true)
	wantAlpha := 0.94140625
	wantCut := 11 * (1 - wantAlpha/2)
	wantCwnd := wantCut + 1/wantCut
	if cc.Alpha() != wantAlpha {
		t.Fatalf("step 2 alpha = %v, want %v", cc.Alpha(), wantAlpha)
	}
	if math.Abs(c.Cwnd-wantCwnd) > 1e-12 {
		t.Fatalf("step 2 cwnd = %v, want %v", c.Cwnd, wantCwnd)
	}

	// Step 3: clean again. α only decays, window grows by 1/W.
	prev := c.Cwnd
	ack(false)
	if cc.Alpha() != wantAlpha*0.9375 {
		t.Fatalf("step 3 alpha = %v, want %v", cc.Alpha(), wantAlpha*0.9375)
	}
	if math.Abs(c.Cwnd-(prev+1/prev)) > 1e-12 {
		t.Fatalf("step 3 cwnd = %v, want %v", c.Cwnd, prev+1/prev)
	}
}

func TestDCTCPLossEvents(t *testing.T) {
	cc, c := stepConn(t)
	c.Cwnd = 8

	// Fast retransmit: classic halving, not the α cut.
	cc.OnFastRetransmit(c)
	if c.Cwnd != 4 {
		t.Fatalf("after fast retransmit cwnd = %v, want 4", c.Cwnd)
	}

	// Timeout: window collapses to MinCwnd, ssthresh = W/2.
	cc.OnTimeout(c)
	if c.Cwnd != c.MinCwnd {
		t.Fatalf("after timeout cwnd = %v, want MinCwnd %v", c.Cwnd, c.MinCwnd)
	}
	// ssthresh is now 2, so the next acked packet slow-starts and the one
	// after grows additively: 1 → 2 → 2 + 1/2… with a window update in
	// between (clean window, no cut).
	cc.OnAck(c, unit.MTUPayload, &packet.Packet{Ack: 0}, 0)
	if c.Cwnd != 2 {
		t.Fatalf("slow-start step cwnd = %v, want 2", c.Cwnd)
	}
	cc.OnAck(c, unit.MTUPayload, &packet.Packet{Ack: 0}, 0)
	if c.Cwnd != 2.5 {
		t.Fatalf("avoidance step cwnd = %v, want 2.5", c.Cwnd)
	}

	// Timeout at a tiny window: ssthresh floors at MinCwnd.
	c.Cwnd = 1.5
	cc.OnTimeout(c)
	if c.Cwnd != c.MinCwnd {
		t.Fatalf("after low-window timeout cwnd = %v, want MinCwnd", c.Cwnd)
	}
}
