// Package idealrate implements the hypothetical ideal rate control of
// the paper's Fig 1(a): an oracle that instantly computes the exact
// max-min fair share for every active flow and paces each sender
// perfectly at that rate. It exists to demonstrate that even perfect
// rate control suffers unbounded queue build-up under bursty flow
// arrivals — the motivating observation for credit-based scheduling.
package idealrate

import (
	"slices"

	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// CC is a no-op policy: the Oracle drives PaceRate directly.
type CC struct{}

// Init implements transport.CC.
func (CC) Init(c *transport.Conn) {
	if c.Cfg.Mode != transport.ModePaced {
		panic("idealrate: requires transport.ModePaced")
	}
}

// OnAck implements transport.CC.
func (CC) OnAck(*transport.Conn, unit.Bytes, *packet.Packet, sim.Duration) {}

// OnFastRetransmit implements transport.CC.
func (CC) OnFastRetransmit(*transport.Conn) {}

// OnTimeout implements transport.CC.
func (CC) OnTimeout(*transport.Conn) {}

// Oracle tracks active connections and assigns each its max-min fair
// share of wire capacity via progressive water-filling. Everything it
// walks is in a fixed order — connections in Attach order, links in the
// order those connections' paths first reach them — so two exactly tied
// bottlenecks are always resolved the same way and the rates come out
// bit for bit the same on every run.
type Oracle struct {
	net   *netem.Network
	conns []*transport.Conn // attached, in Attach order
	paths map[*transport.Conn][]*netem.Port
}

// NewOracle returns an oracle over net. The oracle reads and writes
// every connection's rate from whatever context invokes it.
func NewOracle(net *netem.Network) *Oracle {
	return &Oracle{net: net, paths: make(map[*transport.Conn][]*netem.Port)}
}

// Attach registers c and recomputes all rates.
func (o *Oracle) Attach(c *transport.Conn) {
	f := c.Flow
	if _, ok := o.paths[c]; !ok {
		o.conns = append(o.conns, c)
	}
	o.paths[c] = o.net.TracePorts(f.Sender.ID(), f.Receiver.ID(), f.ID)
	o.Recompute()
}

// Detach removes c and recomputes all rates.
func (o *Oracle) Detach(c *transport.Conn) {
	if i := slices.Index(o.conns, c); i >= 0 {
		o.conns = slices.Delete(o.conns, i, i+1)
	}
	delete(o.paths, c)
	o.Recompute()
}

// Recompute runs water-filling: repeatedly find the link whose equal
// split among its unfrozen flows is smallest (the first such link on a
// tie), freeze those flows at that rate, subtract, and continue.
func (o *Oracle) Recompute() {
	type linkState struct {
		cap   float64
		flows []*transport.Conn
	}
	links := make(map[*netem.Port]*linkState)
	var order []*linkState // links, first seen first
	unfrozen := make(map[*transport.Conn]bool, len(o.conns))
	for _, c := range o.conns {
		unfrozen[c] = true
		for _, p := range o.paths[c] {
			ls := links[p]
			if ls == nil {
				ls = &linkState{cap: float64(p.Rate())}
				links[p] = ls
				order = append(order, ls)
			}
			ls.flows = append(ls.flows, c)
		}
	}
	rate := make(map[*transport.Conn]float64)
	for len(unfrozen) > 0 {
		// Find the tightest link.
		var bottleneck *linkState
		best := 0.0
		for _, ls := range order {
			n := 0
			for _, c := range ls.flows {
				if unfrozen[c] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			share := ls.cap / float64(n)
			if bottleneck == nil || share < best {
				bottleneck, best = ls, share
			}
		}
		if bottleneck == nil {
			// Flows with no capacity-bearing links: give line rate.
			for c := range unfrozen {
				rate[c] = float64(c.Flow.Sender.LineRate())
				delete(unfrozen, c)
			}
			break
		}
		for _, c := range bottleneck.flows {
			if !unfrozen[c] {
				continue
			}
			rate[c] = best
			delete(unfrozen, c)
			for _, p := range o.paths[c] {
				links[p].cap -= best
			}
		}
	}
	for c, r := range rate {
		if r < 1 {
			r = 1
		}
		c.PaceRate = unit.Rate(r)
	}
}
