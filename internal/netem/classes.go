package netem

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
)

// CreditClassConfig defines one credit traffic class at a port (§7
// "Multiple traffic classes"): instead of prioritizing *data* queues,
// ExpressPass applies QoS to the credit queues — strict priority or
// weighted sharing of the credit budget translates directly into the
// same policy on the reverse-path data bandwidth.
type CreditClassConfig struct {
	// Priority orders strict service: lower values are served first
	// whenever they have eligible credits.
	Priority int
	// Weight shares the credit budget among classes of equal priority
	// via deficit round robin. Default 1.
	Weight int
}

// creditScheduler is a port's credit queue: one or more classes behind
// the port's one credit token bucket, served by strict priority across
// priority levels and deficit round robin (in credits) within a level.
// A port without CreditClasses has one class, {Priority: 0, Weight: 1}.
// Each class queues up to the port's CreditQueueCap.
type creditScheduler struct {
	classes []creditClass
	rr      int // round-robin cursor within the eligible set
}

// creditClass is one class's queue, its policy and its transmit count.
type creditClass struct {
	creditQueue
	prio, weight, deficit int
	tx                    uint64 // credits transmitted
}

func newCreditScheduler(classes []CreditClassConfig, queueCap int) creditScheduler {
	if len(classes) == 0 {
		classes = []CreditClassConfig{{}}
	}
	cs := creditScheduler{classes: make([]creditClass, len(classes))}
	for i, c := range classes {
		cs.classes[i] = creditClass{creditQueue: creditQueue{cap: queueCap}, prio: c.Priority, weight: max(c.Weight, 1)}
	}
	return cs
}

// classIndex clamps a packet's class to the configured range.
func (cs *creditScheduler) classIndex(p *packet.Packet) int {
	return min(int(p.Class), len(cs.classes)-1)
}

func (cs *creditScheduler) push(now sim.Time, p *packet.Packet, rng *sim.Rand) (dropped *packet.Packet) {
	return cs.classes[cs.classIndex(p)].push(now, p, rng)
}

func (cs *creditScheduler) empty() bool {
	for i := range cs.classes {
		if !cs.classes[i].empty() {
			return false
		}
	}
	return true
}

func (cs *creditScheduler) len() int {
	n := 0
	for i := range cs.classes {
		n += cs.classes[i].len()
	}
	return n
}

// pick selects the next class to serve, or -1 if all queues are empty.
// Strict priority first; deficit round robin among equal-priority
// non-empty classes, one credit per deficit unit. A one-class scheduler
// returns its class without the scan, empty or not: popping an empty
// queue returns nil.
func (cs *creditScheduler) pick() int {
	if len(cs.classes) == 1 {
		return 0
	}
	best := -1
	for i := range cs.classes {
		if cs.classes[i].empty() {
			continue
		}
		if best < 0 || cs.classes[i].prio < cs.classes[best].prio {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	prio := cs.classes[best].prio
	// DRR among same-priority non-empty classes.
	n := len(cs.classes)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			i := (cs.rr + k) % n
			c := &cs.classes[i]
			if c.prio != prio || c.empty() {
				continue
			}
			if c.deficit > 0 {
				c.deficit--
				cs.rr = (i + 1) % n
				return i
			}
		}
		// No deficit left at this priority: refill by weights.
		for i := range cs.classes {
			if c := &cs.classes[i]; c.prio == prio {
				c.deficit += c.weight
			}
		}
	}
	return best // unreachable in practice; defensive
}

func (cs *creditScheduler) pop(now sim.Time) *packet.Packet {
	i := cs.pick()
	if i < 0 {
		return nil
	}
	return cs.classes[i].pop(now)
}

func (cs *creditScheduler) drops() uint64 {
	var d uint64
	for i := range cs.classes {
		d += cs.classes[i].stats.Drops
	}
	return d
}
