package cubic_test

import (
	"math"
	"testing"

	"expresspass/internal/cubic"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func stepConn(t *testing.T) (*cubic.CC, *transport.Conn) {
	t.Helper()
	eng := sim.New(99)
	d := topology.NewDumbbell(eng, 2, topology.Config{})
	cc := cubic.New() // C = 0.4, β = 0.7
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	c := transport.NewConn(f, cc, 0)
	return cc, c
}

// TestCubicHandComputedSteps walks the Ha/Rhee/Xu window function
// W(t) = C·(t−K)³ + Wmax, K = ∛(Wmax·(1−β)/C), through hand-derived
// steps at an engine clock pinned to 0 (time enters only via the rtt
// argument).
func TestCubicHandComputedSteps(t *testing.T) {
	cc, c := stepConn(t)
	seg := unit.MTUPayload // one segment per ack

	// Slow start: each acked segment adds one packet.
	cc.OnAck(c, seg, &packet.Packet{}, 10*sim.Microsecond)
	if c.Cwnd != 11 {
		t.Fatalf("slow-start cwnd = %v, want 11", c.Cwnd)
	}

	// Loss: Wmax = 11, window cut to β·W = 7.7, epoch reset.
	cc.OnFastRetransmit(c)
	if math.Abs(c.Cwnd-7.7) > 1e-12 {
		t.Fatalf("after fast retransmit cwnd = %v, want 7.7", c.Cwnd)
	}

	// Post-loss ack with a small rtt. K = ∛(11·0.3/0.4) = ∛8.25 ≈
	// 2.0206 s, so near t = 0 the cubic term is deep in the plateau and
	// growth floors at the TCP-friendly Reno rate: W += 1/W.
	prev := c.Cwnd
	cc.OnAck(c, seg, &packet.Packet{}, 10*sim.Microsecond)
	if math.Abs(c.Cwnd-(prev+1/prev)) > 1e-12 {
		t.Fatalf("plateau cwnd = %v, want Reno floor %v", c.Cwnd, prev+1/prev)
	}

	// A (hypothetical) ack arriving 5 s of rtt later probes past K into
	// the convex region. With Wmax = 7.7 from the loss below:
	//   K        = ∛(7.7·0.3/0.4) = ∛5.775 ≈ 1.79412 s
	//   target   = 0.4·(5 − K)³ + 7.7     ≈ 20.8796
	//   growth   = (target − W)/W         (per acked packet)
	cc2, c2 := stepConn(t)
	c2.Cwnd = 7.7
	cc2.OnFastRetransmit(c2) // Wmax = 7.7, congestion avoidance, epoch reset
	c2.Cwnd = 7.7            // restore the hand-picked window
	cc2.OnAck(c2, seg, &packet.Packet{}, 5*sim.Second)
	want := 7.7 + (20.8796-7.7)/7.7
	if math.Abs(c2.Cwnd-want) > 1e-2 {
		t.Fatalf("convex-region cwnd = %v, want ≈%v", c2.Cwnd, want)
	}
}

// TestCubicEpochStartsAtTheLargerWindow: a slow start that overshoots
// the window of the last loss opens its epoch at the window it reached,
// not at the stale Wmax.
func TestCubicEpochStartsAtTheLargerWindow(t *testing.T) {
	cc, c := stepConn(t)
	c.Cwnd = 10
	cc.OnTimeout(c) // Wmax = 10, ssthresh = 7, cwnd = MinCwnd = 1
	cc.OnAck(c, 20*unit.MTUPayload, &packet.Packet{}, 0)
	if c.Cwnd != 21 {
		t.Fatalf("slow-start cwnd = %v, want 1 + 20 acked packets", c.Cwnd)
	}
	// Congestion avoidance with Wmax = 21: K = ∛(21·0.3/0.4) ≈ 2.5066 s,
	// so an ack 5 s of rtt later grows by (0.4·(5−K)³ + 21 − 21)/21 ≈
	// 0.295, well above Reno's 1/21 (a stale Wmax of 10 would give less).
	cc.OnAck(c, unit.MTUPayload, &packet.Packet{}, 5*sim.Second)
	k := math.Cbrt(21 * 0.3 / 0.4)
	if want := 21 + 0.4*math.Pow(5-k, 3)/21; math.Abs(c.Cwnd-want) > 1e-9 {
		t.Fatalf("convex-region cwnd = %v, want %v", c.Cwnd, want)
	}
}

// TestCubicTimeoutRestartsSlowStart pins the timeout path: window to
// the floor, ssthresh to β·W, and slow start re-engaged.
func TestCubicTimeoutRestartsSlowStart(t *testing.T) {
	cc, c := stepConn(t)
	c.Cwnd = 10
	cc.OnTimeout(c)
	if c.Cwnd != c.MinCwnd {
		t.Fatalf("after timeout cwnd = %v, want MinCwnd %v", c.Cwnd, c.MinCwnd)
	}
	// ssthresh = 7: the next acks climb exponentially (one per segment).
	cc.OnAck(c, unit.MTUPayload, &packet.Packet{}, 0)
	if c.Cwnd != 2 {
		t.Fatalf("slow-start restart cwnd = %v, want 2", c.Cwnd)
	}
}
