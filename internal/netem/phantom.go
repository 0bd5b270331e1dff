package netem

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// A HULL phantom queue (Alizadeh et al., "Less is More") simulates a
// virtual link running at phantomDrain of line rate and ECN-marks when
// its simulated backlog exceeds phantomMarkThreshold, signalling
// congestion before any real queue forms. The drain is the HULL paper's
// γ = 0.95. The threshold is 2·MaxFrame = 3,076 B, about two MTUs: the
// HULL paper uses 1–15 KB depending on link speed.
const (
	phantomDrain         = 0.95
	phantomMarkThreshold = 2 * unit.MaxFrame
)

type phantomQueue struct {
	drain   float64 // bytes per picosecond
	backlog float64 // virtual bytes
	last    sim.Time
	Marks   uint64
}

func newPhantomQueue(rate unit.Rate) *phantomQueue {
	return &phantomQueue{drain: phantomDrain * float64(rate) / 8 / float64(sim.Second)}
}

func (pq *phantomQueue) onArrival(now sim.Time, pkt *packet.Packet) {
	if now > pq.last {
		pq.backlog -= float64(now-pq.last) * pq.drain
		if pq.backlog < 0 {
			pq.backlog = 0
		}
		pq.last = now
	}
	// Mark on the standing backlog before this arrival, so a single
	// packet can never mark itself on an otherwise-empty virtual queue.
	if pq.backlog > float64(phantomMarkThreshold) && pkt.ECNCapable {
		pkt.CE = true
		pq.Marks++
	}
	pq.backlog += float64(pkt.Wire)
}
