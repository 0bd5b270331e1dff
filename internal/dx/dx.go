// Package dx implements the DX congestion controller (Lee et al., USENIX
// ATC 2015): the receiver measures each data packet's one-way latency;
// the sender keeps the minimum as the zero-queue baseline and, once per
// window, either grows additively (no queuing observed) or decreases the
// window proportionally to the average measured queuing delay:
//
//	W ← W·(1 − Q/(Q+V)) + 1
//
// where V is the self-inflicted-delay headroom. This matches the level
// of detail the ExpressPass paper relies on for its DX baseline.
package dx

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// headroom is V: queuing below roughly V is tolerated as measurement
// noise / self-queuing (a few MTU times at 10 Gbps).
const headroom = 4 * sim.Microsecond

// CC is the DX policy for transport.Conn.
type CC struct {
	baseDelay sim.Duration // min one-way delay observed
	windowEnd int64
	sumQ      sim.Duration
	samples   int
}

// New returns a DX controller.
func New() *CC {
	return &CC{baseDelay: sim.Forever}
}

// Init implements transport.CC.
func (d *CC) Init(c *transport.Conn) { d.windowEnd = 0 }

// OnAck implements transport.CC.
func (d *CC) OnAck(c *transport.Conn, acked unit.Bytes, ack *packet.Packet, _ sim.Duration) {
	if ack.Delay > 0 && ack.Delay < d.baseDelay {
		d.baseDelay = ack.Delay
	}
	if q := ack.Delay - d.baseDelay; q > 0 {
		d.sumQ += q
	}
	d.samples++

	if ack.Ack >= d.windowEnd {
		// One window observed: apply the DX update.
		var avgQ sim.Duration
		if d.samples > 0 {
			avgQ = d.sumQ / sim.Duration(d.samples)
		}
		if avgQ > 0 {
			c.Cwnd = c.Cwnd*(1-float64(avgQ)/(float64(avgQ)+float64(headroom))) + 1
		} else {
			c.Cwnd += 1
		}
		c.ClampCwnd()
		d.sumQ, d.samples = 0, 0
		d.windowEnd = c.NextSeqNum()
	}
}

// OnFastRetransmit implements transport.CC.
func (d *CC) OnFastRetransmit(c *transport.Conn) {
	c.Cwnd /= 2
	c.ClampCwnd()
}

// OnTimeout implements transport.CC.
func (d *CC) OnTimeout(c *transport.Conn) {
	c.Cwnd = c.MinCwnd
}
