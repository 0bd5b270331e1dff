package netem

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// The gains of the explicit rate update: rcpAlpha weights the
// spare-capacity term and rcpBeta the queue-drain term.
const (
	rcpAlpha float64 = 0.4
	rcpBeta  float64 = 0.226
)

// rcpMeter computes one explicit fair rate per egress port (Dukkipati,
// "Rate Control Protocol"), for every port whose PortConfig.RCP, the d̄
// estimate, is set:
//
//	R ← R·(1 + (T/d̄)·(α·(C − y) − β·q/d̄)/C)
//
// where y is the measured input rate over the last interval T and q the
// instantaneous queue. Every data packet is stamped with the minimum R
// along its path; receivers echo it back to the sender.
type rcpMeter struct {
	interval sim.Duration // the RTT estimate: d̄, and the update period T
	capacity unit.Rate
	rate     unit.Rate
	arrived  unit.Bytes // bytes arrived this interval
	// minQueue is the smallest occupancy observed this interval: the
	// persistent (standing) queue. Using the instantaneous queue would
	// read transient bursts as standing backlog and crater the rate.
	minQueue   unit.Bytes
	sawArrival bool
	rttSec     float64 // interval in seconds
}

func newRCPMeter(capacity unit.Rate, rtt sim.Duration) *rcpMeter {
	return &rcpMeter{interval: rtt, capacity: capacity, rate: capacity, rttSec: rtt.Seconds()}
}

// rcpClock is the one timer behind every meter of a network that shares
// a phase: a single dom-0 event per interval that updates the meters in
// registration order — port-creation order — and re-arms itself once.
// next is the deadline of the queued tick.
type rcpClock struct {
	eng      *sim.Engine
	next     sim.Time
	interval sim.Duration
	meters   []*rcpMeter
}

// startRCP puts m on the clock whose next tick is one interval from now,
// starting that clock if there is none. A port connected at another
// instant, or with another RTT, matches no existing clock and so keeps
// its own phase.
func (n *Network) startRCP(m *rcpMeter) {
	interval := m.interval
	next := n.Eng.Now() + interval
	for _, c := range n.rcpClocks {
		if c.next == next && c.interval == interval {
			c.meters = append(c.meters, m)
			return
		}
	}
	c := &rcpClock{eng: n.Eng, next: next, interval: interval, meters: []*rcpMeter{m}}
	n.rcpClocks = append(n.rcpClocks, c)
	c.eng.At2D(0, next, rcpClockTick, c, nil, 0)
}

func rcpClockTick(obj, _ any, _ uint64) {
	c := obj.(*rcpClock)
	for _, m := range c.meters {
		m.update()
	}
	c.next += c.interval
	c.eng.At2D(0, c.next, rcpClockTick, c, nil, 0)
}

func (m *rcpMeter) update() {
	c := float64(m.capacity)
	d := m.rttSec
	t := d // one update per RTT estimate
	y := float64(m.arrived) * 8 / t
	m.arrived = 0
	var q float64
	if m.sawArrival {
		q = float64(m.minQueue) * 8 // bits of standing queue
	}
	m.sawArrival = false
	// Damping for the discrete sampled controller: the fluid-model
	// stability of RCP assumes q on the order of a BDP and smooth rate
	// evolution. A drop-tail queue capped at several BDPs would
	// otherwise make the β-term crash R to the floor in one update and
	// induce a full-amplitude limit cycle, so the standing-queue term
	// is bounded at one BDP and each update moves R by at most 2× in
	// either direction.
	if bdp := c * d; q > bdp {
		q = bdp
	}
	factor := 1 + (t/d)*(rcpAlpha*(c-y)-rcpBeta*q/d)/c
	if factor < 0.5 {
		factor = 0.5
	}
	if factor > 2 {
		factor = 2
	}
	r := float64(m.rate) * factor
	min := c / 1000
	if r < min {
		r = min
	}
	if r > c {
		r = c
	}
	m.rate = unit.Rate(r)
}

func (m *rcpMeter) onArrival(_ sim.Time, pkt *packet.Packet, queueBytes unit.Bytes) {
	m.arrived += pkt.Wire
	if !m.sawArrival || queueBytes < m.minQueue {
		m.minQueue = queueBytes
	}
	m.sawArrival = true
	if pkt.RCPRate == 0 || m.rate < pkt.RCPRate {
		pkt.RCPRate = m.rate
	}
}
