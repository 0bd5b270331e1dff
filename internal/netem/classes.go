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

// creditScheduler multiplexes several credit classes over one port's
// credit token bucket: strict priority across priority levels, deficit
// round robin (in credits) within a level. Each class queues up to the
// port's CreditQueueCap.
type creditScheduler struct {
	classes []CreditClassConfig
	queues  []creditQueue
	deficit []int
	rr      int // round-robin cursor within the eligible set
}

func newCreditScheduler(classes []CreditClassConfig, queueCap int) *creditScheduler {
	cs := &creditScheduler{classes: append([]CreditClassConfig(nil), classes...)}
	cs.queues = make([]creditQueue, len(classes))
	cs.deficit = make([]int, len(classes))
	for i := range classes {
		cs.queues[i].cap = queueCap
		if cs.classes[i].Weight <= 0 {
			cs.classes[i].Weight = 1
		}
	}
	return cs
}

// classIndex clamps a packet's class to the configured range.
func (cs *creditScheduler) classIndex(p *packet.Packet) int {
	i := int(p.Class)
	if i >= len(cs.queues) {
		i = len(cs.queues) - 1
	}
	return i
}

func (cs *creditScheduler) push(now sim.Time, p *packet.Packet, rng *sim.Rand) (dropped *packet.Packet) {
	return cs.queues[cs.classIndex(p)].push(now, p, rng)
}

func (cs *creditScheduler) empty() bool {
	for i := range cs.queues {
		if !cs.queues[i].empty() {
			return false
		}
	}
	return true
}

func (cs *creditScheduler) len() int {
	n := 0
	for i := range cs.queues {
		n += cs.queues[i].len()
	}
	return n
}

// pick selects the next class to serve, or -1 if all queues are empty.
// Strict priority first; deficit round robin among equal-priority
// non-empty classes, one credit per deficit unit.
func (cs *creditScheduler) pick() int {
	best := -1
	for i := range cs.queues {
		if cs.queues[i].empty() {
			continue
		}
		if best < 0 || cs.classes[i].Priority < cs.classes[best].Priority {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	prio := cs.classes[best].Priority
	// DRR among same-priority non-empty classes.
	n := len(cs.queues)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			i := (cs.rr + k) % n
			if cs.classes[i].Priority != prio || cs.queues[i].empty() {
				continue
			}
			if cs.deficit[i] > 0 {
				cs.deficit[i]--
				cs.rr = (i + 1) % n
				return i
			}
		}
		// No deficit left at this priority: refill by weights.
		for i := range cs.queues {
			if cs.classes[i].Priority == prio {
				cs.deficit[i] += cs.classes[i].Weight
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
	return cs.queues[i].pop(now)
}

// stats aggregation over classes.

func (cs *creditScheduler) drops() uint64 {
	var d uint64
	for i := range cs.queues {
		d += cs.queues[i].stats.Drops
	}
	return d
}

// ClassStats exposes one class's queue statistics.
func (p *Port) ClassStats(class int) *QueueStats {
	if p.sched == nil || class >= len(p.sched.queues) {
		return p.CreditStats()
	}
	return &p.sched.queues[class].stats
}

// TxCreditByClass returns credits transmitted per class (nil when the
// port has a single implicit class).
func (p *Port) TxCreditByClass() []uint64 {
	return append([]uint64(nil), p.txCreditClass...)
}
