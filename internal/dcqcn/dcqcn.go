// Package dcqcn implements DCQCN (Zhu et al., SIGCOMM 2015), the
// ECN-based rate control deployed for large-scale RDMA — the §1/§8
// comparison point whose reliance on PFC motivates ExpressPass's
// proactive design. Switches RED-mark packets (netem.REDConfig); the
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

// Config follows the DCQCN paper's parameter names and defaults.
type Config struct {
	G           float64      // α gain, default 1/256
	CNPInterval sim.Duration // min gap between rate cuts, default 50 µs
	AlphaTimer  sim.Duration // α decay period, default 55 µs
	IncTimer    sim.Duration // rate-increase period, default 300 µs
	ByteCounter unit.Bytes   // rate-increase byte stage, default 10 MB
	F           int          // fast-recovery stages, default 5
	RateAI      unit.Rate    // additive increment, default 40 Mbps
	RateHAI     unit.Rate    // hyper increment, default 400 Mbps
	MinRate     unit.Rate    // floor, default 10 Mbps
}

func (c Config) withDefaults() Config {
	if c.G == 0 {
		c.G = 1.0 / 256
	}
	if c.CNPInterval == 0 {
		c.CNPInterval = 50 * sim.Microsecond
	}
	if c.AlphaTimer == 0 {
		c.AlphaTimer = 55 * sim.Microsecond
	}
	if c.IncTimer == 0 {
		c.IncTimer = 300 * sim.Microsecond
	}
	if c.ByteCounter == 0 {
		c.ByteCounter = 10 * unit.MB
	}
	if c.F == 0 {
		c.F = 5
	}
	if c.RateAI == 0 {
		c.RateAI = 40 * unit.Mbps
	}
	if c.RateHAI == 0 {
		c.RateHAI = 400 * unit.Mbps
	}
	if c.MinRate == 0 {
		c.MinRate = 10 * unit.Mbps
	}
	return c
}

// CC is the DCQCN reaction-point policy for transport.Conn (ModePaced).
type CC struct {
	cfg Config

	alpha      float64
	target     unit.Rate
	lastCNP    sim.Time
	cnpSinceAT bool // CNP seen since the last alpha-timer tick

	timerIter int // rate-increase stages completed via timer
	byteIter  int // rate-increase stages completed via byte counter
	ackedB    unit.Bytes
}

// New returns a DCQCN controller.
func New(cfg Config) *CC {
	return &CC{cfg: cfg.withDefaults(), alpha: 1}
}

// Alpha returns the current congestion estimate.
func (d *CC) Alpha() float64 { return d.alpha }

// Init implements transport.CC.
func (d *CC) Init(c *transport.Conn) {
	if c.Cfg.Mode != transport.ModePaced {
		panic("dcqcn: requires transport.ModePaced")
	}
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
			d.alpha *= 1 - d.cfg.G
		}
		d.cnpSinceAT = false
		eng.AfterD(dom, d.cfg.AlphaTimer, alphaTick)
	}
	eng.AfterD(dom, d.cfg.AlphaTimer, alphaTick)

	var incTick func()
	incTick = func() {
		if c.Stopped() {
			return
		}
		d.timerIter++
		d.increase(c)
		eng.AfterD(dom, d.cfg.IncTimer, incTick)
	}
	eng.AfterD(dom, d.cfg.IncTimer, incTick)
}

// OnAck implements transport.CC: a marked echo is treated as a CNP,
// rate-limited to one reaction per CNPInterval.
func (d *CC) OnAck(c *transport.Conn, acked unit.Bytes, ack *packet.Packet, _ sim.Duration) {
	d.ackedB += acked
	if d.ackedB >= d.cfg.ByteCounter {
		d.ackedB = 0
		d.byteIter++
		d.increase(c)
	}
	if !ack.ECNEcho {
		return
	}
	now := c.Engine().Now()
	if now-d.lastCNP < d.cfg.CNPInterval {
		return
	}
	d.lastCNP = now
	d.cnpSinceAT = true
	// Reaction point: cut and remember the pre-cut rate as the target.
	d.alpha = (1-d.cfg.G)*d.alpha + d.cfg.G
	d.target = c.PaceRate
	c.PaceRate = unit.Rate(float64(c.PaceRate) * (1 - d.alpha/2))
	if c.PaceRate < d.cfg.MinRate {
		c.PaceRate = d.cfg.MinRate
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
	case ti > d.cfg.F && bi > d.cfg.F:
		d.target += d.cfg.RateHAI // hyper increase: both stages mature
	case ti > d.cfg.F || bi > d.cfg.F:
		d.target += d.cfg.RateAI // additive increase
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
	if c.PaceRate < d.cfg.MinRate {
		c.PaceRate = d.cfg.MinRate
	}
}
