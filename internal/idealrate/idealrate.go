// Package idealrate implements the hypothetical ideal rate control of
// the paper's Fig 1(a): an oracle that instantly computes the exact
// max-min fair share for every active flow and paces each sender
// perfectly at that rate. It exists to demonstrate that even perfect
// rate control suffers unbounded queue build-up under bursty flow
// arrivals — the motivating observation for credit-based scheduling.
package idealrate

import (
	"math"
	"slices"

	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// CC is a paced policy that reacts to nothing: the Oracle drives
// PaceRate directly.
type CC struct{}

// Init implements transport.CC.
func (CC) Init(c *transport.Conn) { c.Paced = true }

// OnAck implements transport.CC.
func (CC) OnAck(*transport.Conn, unit.Bytes, *packet.Packet, sim.Duration) {}

// OnFastRetransmit implements transport.CC.
func (CC) OnFastRetransmit(*transport.Conn) {}

// OnTimeout implements transport.CC.
func (CC) OnTimeout(*transport.Conn) {}

// Oracle tracks active connections and paces each at its max-min fair
// share of wire capacity (MaxMin over their paths, in Attach order), so
// the rates come out bit for bit the same on every run.
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

// Recompute paces every attached connection at its MaxMin share over
// its path, in Attach order; a connection whose path bears no capacity
// is paced at its sender's line rate.
func (o *Oracle) Recompute() {
	paths := make([][]*netem.Port, len(o.conns))
	for i, c := range o.conns {
		paths[i] = o.paths[c]
	}
	for i, r := range MaxMin(paths) {
		c := o.conns[i]
		if math.IsInf(r, 1) {
			r = float64(c.Flow.Sender.LineRate())
		}
		if r < 1 {
			r = 1
		}
		c.PaceRate = unit.Rate(r)
	}
}

// MaxMin returns the max-min fair rate of every path, in bits per
// second, by progressive water-filling over its ports' line rates:
// repeatedly find the link whose equal split among its unfrozen paths is
// smallest (the first such link on a tie), freeze those paths at that
// rate, subtract, and continue. Paths are walked in order and links in
// the order the paths first reach them, so two exactly tied bottlenecks
// are always resolved the same way and the rates come out bit for bit
// the same on every call. A path with no port is bounded by nothing: its
// rate is +Inf.
func MaxMin(paths [][]*netem.Port) []float64 {
	type linkState struct {
		cap   float64
		paths []int
	}
	links := make(map[*netem.Port]*linkState)
	var order []*linkState // links, first seen first
	for i, path := range paths {
		for _, p := range path {
			ls := links[p]
			if ls == nil {
				ls = &linkState{cap: float64(p.Rate())}
				links[p] = ls
				order = append(order, ls)
			}
			ls.paths = append(ls.paths, i)
		}
	}
	rate := make([]float64, len(paths))
	frozen := make([]bool, len(paths))
	for {
		// Find the tightest link.
		var bottleneck *linkState
		best := 0.0
		for _, ls := range order {
			n := 0
			for _, i := range ls.paths {
				if !frozen[i] {
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
			break
		}
		for _, i := range bottleneck.paths {
			if frozen[i] {
				continue
			}
			rate[i], frozen[i] = best, true
			for _, p := range paths[i] {
				links[p].cap -= best
			}
		}
	}
	for i := range rate {
		if !frozen[i] {
			rate[i] = math.Inf(1)
		}
	}
	return rate
}
