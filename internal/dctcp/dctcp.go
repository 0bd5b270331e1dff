// Package dctcp implements the DCTCP congestion controller (Alizadeh et
// al., SIGCOMM 2010): switches mark CE above a queue threshold K, the
// receiver echoes marks, and the sender maintains an EWMA `α` of the
// marked fraction, cutting its window by α/2 once per window of data.
package dctcp

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// The controller's constants, the Alizadeh et al. settings the paper's
// §6.3 baseline runs with: the EWMA gain g, and the initial α of 1 (the
// conservative start: the first marked window halves W). g is typed so
// 1−g rounds like the float64 arithmetic of the update rule.
const (
	g         float64 = 1.0 / 16
	initAlpha float64 = 1
)

// CC is the DCTCP congestion-control policy for transport.Conn.
type CC struct {
	alpha     float64
	ssthresh  float64
	windowEnd int64 // alpha observation window boundary (seq)
	ackedB    unit.Bytes
	markedB   unit.Bytes
}

// New returns a DCTCP controller.
func New() *CC {
	return &CC{alpha: initAlpha, ssthresh: 1 << 30}
}

// Init implements transport.CC.
func (d *CC) Init(c *transport.Conn) {
	d.windowEnd = 0
}

// Alpha returns the current marked-fraction estimate.
func (d *CC) Alpha() float64 { return d.alpha }

// OnAck implements transport.CC.
func (d *CC) OnAck(c *transport.Conn, acked unit.Bytes, ack *packet.Packet, _ sim.Duration) {
	d.ackedB += acked
	if ack.ECNEcho {
		d.markedB += acked
	}
	if ack.Ack >= d.windowEnd {
		// One observation window (≈ one RTT of data) completed.
		if d.ackedB > 0 {
			f := float64(d.markedB) / float64(d.ackedB)
			d.alpha = (1-g)*d.alpha + g*f
			if f > 0 {
				c.Cwnd *= 1 - d.alpha/2
				c.ClampCwnd()
				d.ssthresh = c.Cwnd
			}
		}
		d.ackedB, d.markedB = 0, 0
		d.windowEnd = c.NextSeqNum()
	}
	// Window growth: slow start below ssthresh, else 1 pkt per RTT.
	pkts := float64(acked) / float64(unit.MTUPayload)
	if c.Cwnd < d.ssthresh {
		c.Cwnd += pkts
	} else {
		c.Cwnd += pkts / c.Cwnd
	}
	c.ClampCwnd()
}

// OnFastRetransmit implements transport.CC.
func (d *CC) OnFastRetransmit(c *transport.Conn) {
	c.Cwnd /= 2
	c.ClampCwnd()
	d.ssthresh = c.Cwnd
}

// OnTimeout implements transport.CC.
func (d *CC) OnTimeout(c *transport.Conn) {
	d.ssthresh = c.Cwnd / 2
	if d.ssthresh < c.Cfg.MinCwnd {
		d.ssthresh = c.Cfg.MinCwnd
	}
	c.Cwnd = c.Cfg.MinCwnd
}

// RecommendedK returns the paper-recommended marking threshold for a
// given line rate, scaled from K=65 packets at 10 Gbps (Fig 16 setup).
func RecommendedK(rate unit.Rate) unit.Bytes {
	pkts := 65 * float64(rate) / float64(10*unit.Gbps)
	if pkts < 20 {
		pkts = 20
	}
	return unit.Bytes(pkts * float64(unit.MaxFrame))
}
