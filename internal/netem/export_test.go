package netem

// Test-only views of per-port and per-network storage for the footprint
// guards in package netem_test, which build real topologies and
// transports (both import this package, so they cannot be used from
// in-package tests).

// RingUse is one queue's allocated slots beside the peak occupancy it
// reported.
type RingUse struct {
	Class   string
	Slots   int
	MaxPkts int
}

// RingUses lists p's data ring and the ring of every class of its
// credit scheduler.
func RingUses(p *Port) []RingUse {
	uses := []RingUse{{"data", len(p.data.ring.buf), p.data.stats.MaxPkts}}
	for i := range p.credits.classes {
		q := &p.credits.classes[i]
		uses = append(uses, RingUse{"credit class", len(q.ring.buf), q.stats.MaxPkts})
	}
	return uses
}

// DemuxSlots returns the number of entries in n's flow table.
func DemuxSlots(n *Network) int { return len(n.flows) }
