// Package cubic implements TCP CUBIC (Ha, Rhee, Xu 2008): a loss-based
// controller whose window grows as a cubic function of time since the
// last loss event. It is the kernel-default baseline of the paper's
// Fig 2 convergence comparison.
package cubic

import (
	"math"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// CUBIC's constants. They are typed so that 1−beta rounds as float64
// arithmetic does.
const (
	cubicC float64 = 0.4 // cubic scaling constant
	beta   float64 = 0.7 // multiplicative decrease (new = old·beta)
)

// CC is the CUBIC policy for transport.Conn.
type CC struct {
	wMax     float64  // window before last reduction (packets)
	epoch    sim.Time // start of current growth epoch
	k        float64  // time offset to reach wMax (seconds)
	ssthresh float64
	inSS     bool
}

// New returns a CUBIC controller.
func New() *CC {
	return &CC{ssthresh: 1 << 30, inSS: true}
}

// Init implements transport.CC.
func (cc *CC) Init(c *transport.Conn) {
	cc.epoch = 0
}

// OnAck implements transport.CC.
func (cc *CC) OnAck(c *transport.Conn, acked unit.Bytes, _ *packet.Packet, rtt sim.Duration) {
	pkts := float64(acked) / float64(unit.MTUPayload)
	if cc.inSS && c.Cwnd < cc.ssthresh {
		c.Cwnd += pkts
		c.ClampCwnd()
		return
	}
	cc.inSS = false
	now := c.Engine().Now()
	if cc.epoch == 0 {
		cc.epoch = now
		if cc.wMax < c.Cwnd {
			cc.wMax = c.Cwnd
		}
		cc.k = math.Cbrt(cc.wMax * (1 - beta) / cubicC)
	}
	t := (now - cc.epoch).Seconds() + rtt.Seconds()
	target := cubicC*math.Pow(t-cc.k, 3) + cc.wMax
	grow := (target - c.Cwnd) / c.Cwnd * pkts
	// TCP-friendly region: in low-RTT networks the cubic function is
	// glacial (K is seconds), so CUBIC must grow at least at Reno's
	// one-segment-per-RTT rate or it parks at the plateau forever.
	if reno := pkts / c.Cwnd; grow < reno {
		grow = reno
	}
	c.Cwnd += grow
	c.ClampCwnd()
}

// OnFastRetransmit implements transport.CC.
func (cc *CC) OnFastRetransmit(c *transport.Conn) {
	cc.wMax = c.Cwnd
	c.Cwnd *= beta
	c.ClampCwnd()
	cc.ssthresh = c.Cwnd
	cc.epoch = 0
	cc.inSS = false
}

// OnTimeout implements transport.CC.
func (cc *CC) OnTimeout(c *transport.Conn) {
	cc.wMax = c.Cwnd
	cc.ssthresh = math.Max(c.Cwnd*beta, c.Cfg.MinCwnd)
	c.Cwnd = c.Cfg.MinCwnd
	cc.epoch = 0
	cc.inSS = true
}
