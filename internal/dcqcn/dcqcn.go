// Package dcqcn implements DCQCN (Zhu et al., SIGCOMM 2015), the
// ECN-based rate control deployed for large-scale RDMA — the §1/§8
// comparison point whose reliance on PFC motivates ExpressPass's
// proactive design. Switches RED-mark packets (netem.PortConfig.RED); the
// receiver signals congestion back at most once per CNP interval (here
// via the marked-ACK echo); the sender reacts with a QCN-like
// multiplicative cut and recovers through fast-recovery / additive /
// hyper increase stages. Run it over PFC-enabled ports
// (netem.PFCConfig) for the lossless fabric it assumes.
package dcqcn

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// DCQCN's parameters, under the DCQCN paper's names and at its
// defaults.
const (
	g           float64 = 1.0 / 256             // α gain
	cnpInterval         = 50 * sim.Microsecond  // min gap between rate cuts
	alphaTimer          = 55 * sim.Microsecond  // α decay period
	incTimer            = 300 * sim.Microsecond // rate-increase period
	byteCounter         = 10 * unit.MB          // rate-increase byte stage
	stagesF             = 5                     // fast-recovery stages
	rateAI              = 40 * unit.Mbps        // additive increment
	rateHAI             = 400 * unit.Mbps       // hyper increment
	minRate             = 10 * unit.Mbps        // rate floor
)

// CC is the DCQCN reaction-point policy for transport.Conn: a paced,
// ECN-capable sender.
type CC struct {
	alpha      float64
	target     unit.Rate
	lastCNP    sim.Time
	cnpSinceAT bool // CNP seen since the last alpha-timer tick

	timerIter int // rate-increase stages completed via timer
	byteIter  int // rate-increase stages completed via byte counter
	ackedB    unit.Bytes
}

// New returns a DCQCN controller.
func New() *CC {
	return &CC{alpha: 1}
}

// Init implements transport.CC.
func (d *CC) Init(c *transport.Conn) {
	c.Paced, c.ECN = true, true
	d.target = c.PaceRate
	eng := c.Engine()
	// Timers run in the sender host's scheduling domain, with the rest of
	// the connection's sender-side events.
	dom := c.Flow.Sender.Dom()
	// α decay: without CNPs, confidence in congestion fades.
	var alphaTick func()
	alphaTick = func() {
		if c.Stopped() {
			return
		}
		if !d.cnpSinceAT {
			d.alpha *= 1 - g
		}
		d.cnpSinceAT = false
		eng.AfterD(dom, alphaTimer, alphaTick)
	}
	eng.AfterD(dom, alphaTimer, alphaTick)

	var incTick func()
	incTick = func() {
		if c.Stopped() {
			return
		}
		d.timerIter++
		d.increase(c)
		eng.AfterD(dom, incTimer, incTick)
	}
	eng.AfterD(dom, incTimer, incTick)
}

// OnAck implements transport.CC: a marked echo is treated as a CNP,
// rate-limited to one reaction per CNP interval (50 µs).
func (d *CC) OnAck(c *transport.Conn, acked unit.Bytes, ack *packet.Packet, _ sim.Duration) {
	d.ackedB += acked
	if d.ackedB >= byteCounter {
		d.ackedB = 0
		d.byteIter++
		d.increase(c)
	}
	if !ack.ECNEcho {
		return
	}
	now := c.Engine().Now()
	if now-d.lastCNP < cnpInterval {
		return
	}
	d.lastCNP = now
	d.cnpSinceAT = true
	// Reaction point: cut and remember the pre-cut rate as the target.
	d.alpha = (1-g)*d.alpha + g
	d.target = c.PaceRate
	c.PaceRate = unit.Rate(float64(c.PaceRate) * (1 - d.alpha/2))
	if c.PaceRate < minRate {
		c.PaceRate = minRate
	}
	d.timerIter, d.byteIter = 0, 0
	d.ackedB = 0
}

// increase runs one recovery stage: fast recovery halves the gap to the
// pre-cut target; later stages push the target itself up (additively,
// then hyper-actively).
func (d *CC) increase(c *transport.Conn) {
	ti, bi := d.timerIter, d.byteIter
	switch {
	case ti > stagesF && bi > stagesF:
		d.target += rateHAI // hyper increase: both stages mature
	case ti > stagesF || bi > stagesF:
		d.target += rateAI // additive increase
	default:
		// Fast recovery: converge toward the remembered target.
	}
	line := c.Flow.Sender.LineRate()
	if d.target > line {
		d.target = line
	}
	c.PaceRate = (d.target + c.PaceRate) / 2
}

// OnFastRetransmit implements transport.CC (loss is not DCQCN's signal;
// with PFC it should not occur).
func (d *CC) OnFastRetransmit(*transport.Conn) {}

// OnTimeout implements transport.CC.
func (d *CC) OnTimeout(c *transport.Conn) {
	// A timeout under DCQCN means the lossless assumption was violated;
	// fall back to a deep cut.
	c.PaceRate /= 2
	if c.PaceRate < minRate {
		c.PaceRate = minRate
	}
}
