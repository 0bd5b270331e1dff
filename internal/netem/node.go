package netem

import (
	"cmp"
	"fmt"
	"slices"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
)

// Node is anything a port can belong to: a switch or a host.
type Node interface {
	ID() packet.NodeID
	Name() string
	// Deliver is invoked when pkt fully arrives at this node; in is this
	// node's port on the link the packet arrived over.
	Deliver(pkt *packet.Packet, in *Port)
	addPort(p *Port)
	Ports() []*Port
}

// FlowHash is the symmetric flow hash used for ECMP: it canonicalizes the
// (src, dst) pair so a flow's data packets and its credit/ACK packets in
// the opposite direction hash identically (§3.1 symmetric hashing).
// The per-hop selection is hash % len(candidates) with candidates sorted
// by neighbor ID at every switch, which — as in deterministic-ECMP
// switches — yields symmetric paths on Clos topologies.
func FlowHash(src, dst packet.NodeID, flow packet.FlowID) uint64 {
	a, b := src, dst
	if a > b {
		a, b = b, a
	}
	x := uint64(uint32(a))<<32 | uint64(uint32(b))
	x ^= uint64(flow) * 0x9e3779b97f4a7c15
	// SplitMix64 finalizer.
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Switch forwards packets between ports using per-destination ECMP route
// tables with symmetric hashing. Switches hold no per-flow state.
type Switch struct {
	id    packet.NodeID
	name  string
	net   *Network
	ports []*Port

	// dom is the switch's scheduling domain; rng its private stream
	// (packet spraying), forked from the root RNG at creation so its
	// draws depend on no other component's.
	dom int32
	rng *sim.Rand

	// routes[dst] lists candidate egress port indexes (equal cost),
	// sorted by peer node ID for deterministic ECMP. The table is a
	// dense slice indexed by NodeID — node IDs are small contiguous
	// integers, so this turns the per-hop route lookup into one bounds
	// check and one load instead of a map probe. A nil entry (or an
	// index past the end) means no route; BuildRoutes and fault
	// reconvergence rebuild entries in place via SetRoutes/ClearRoutes.
	routes [][]int

	// hashSalt decorrelates ECMP choices between switch *levels* while
	// preserving path symmetry: all switches at one level share a salt,
	// so a flow picks the same relative index at corresponding switches
	// in both directions, but its ToR-level and agg-level choices are
	// independent (otherwise hash%k reuses the same bits at every hop
	// and only a diagonal of the core layer is ever used).
	hashSalt uint64
	spray    bool

	// Misrouted counts packets with no route (indicates a topology bug).
	Misrouted uint64
}

// SetHashLevel assigns the switch's ECMP salt; topology builders call it
// with the switch's layer index (0 = ToR, 1 = agg, 2 = core).
func (s *Switch) SetHashLevel(level int) {
	x := uint64(level+1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	s.hashSalt = x ^ (x >> 31)
}

// ID returns the switch's node ID.
func (s *Switch) ID() packet.NodeID { return s.id }

// Name returns the switch's name.
func (s *Switch) Name() string { return s.name }

// Ports returns the switch's egress ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

func (s *Switch) addPort(p *Port) {
	p.index = len(s.ports)
	s.ports = append(s.ports, p)
}

// SetRoutes installs the candidate egress ports for dst. The slice is
// re-sorted by peer node ID to guarantee deterministic ECMP ordering.
func (s *Switch) SetRoutes(dst packet.NodeID, portIdx []int) {
	sorted := append([]int(nil), portIdx...)
	slices.SortFunc(sorted, func(a, b int) int {
		return cmp.Compare(s.ports[a].peer.owner.ID(), s.ports[b].peer.owner.ID())
	})
	s.growRoutes(dst)
	s.routes[dst] = sorted
}

// ClearRoutes removes the route entry for dst (used when a failure
// disconnects it from this switch).
func (s *Switch) ClearRoutes(dst packet.NodeID) {
	if int(dst) < len(s.routes) {
		s.routes[dst] = nil
	}
}

// growRoutes extends the dense table to cover dst.
func (s *Switch) growRoutes(dst packet.NodeID) {
	if n := int(dst) + 1; n > len(s.routes) {
		if n <= cap(s.routes) {
			s.routes = s.routes[:n]
		} else {
			grown := make([][]int, n)
			copy(grown, s.routes)
			s.routes = grown
		}
	}
}

// SetSpraying switches the port-selection policy to per-packet random
// spraying (§7: "Packet spraying is a viable alternative" to symmetric
// hashing — all available paths get equivalent load, and ExpressPass's
// bounded queuing limits the resulting reordering).
func (s *Switch) SetSpraying(on bool) { s.spray = on }

// Routes returns the ECMP candidates for dst (nil if unreachable).
func (s *Switch) Routes(dst packet.NodeID) []int {
	if uint(dst) >= uint(len(s.routes)) { // unsigned compare also rejects dst < 0
		return nil
	}
	return s.routes[dst]
}

// NextPort returns the egress port the switch would pick for a packet of
// the given flow toward dst, or nil if no route exists.
func (s *Switch) NextPort(src, dst packet.NodeID, flow packet.FlowID) *Port {
	if uint(dst) >= uint(len(s.routes)) { // unsigned compare also rejects dst < 0
		return nil
	}
	cand := s.routes[dst]
	switch len(cand) {
	case 0:
		return nil
	case 1:
		return s.ports[cand[0]]
	}
	if s.spray {
		return s.ports[cand[s.rng.Intn(len(cand))]]
	}
	h := FlowHash(src, dst, flow) ^ s.hashSalt
	// Remix so the salt affects all bits, not just an XOR of the low ones.
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return s.ports[cand[int(h%uint64(len(cand)))]]
}

// Deliver forwards pkt toward its destination.
func (s *Switch) Deliver(pkt *packet.Packet, _ *Port) {
	out := s.NextPort(pkt.Src, pkt.Dst, pkt.Flow)
	if out == nil {
		s.Misrouted++
		out0 := s.ports
		if len(out0) > 0 {
			out0[0].pfcOnDepart(pkt) // any port reaches the network table
		}
		s.net.pool.Put(pkt)
		return
	}
	out.Enqueue(pkt)
}

func (s *Switch) String() string { return fmt.Sprintf("switch(%s)", s.name) }
