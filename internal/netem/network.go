package netem

import (
	"fmt"

	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Wiring is what a run attaches to every network built on its engines
// (sim.Engine.Wiring): the instrumentation scope — the obs.Trial of the
// sweep trial that created the engine — and the per-network check the
// run arms (invariant.Set.Attach), which is how layers above netem attach
// themselves without netem importing them. Either may be nil.
type Wiring struct {
	Scope *obs.Trial
	Check func(*Network)
}

// DefaultHostQueue is the NIC egress data budget. It is generous so host
// egress never drops locally-sourced data; contention is at switches.
const DefaultHostQueue = 16 * unit.MB

// Network owns the nodes and links of one simulated topology.
type Network struct {
	Eng *sim.Engine

	nodes    []Node
	hosts    []*Host
	switches []*Switch
	ports    []*Port

	rcpClocks []*rcpClock // one per (phase, interval) among the RCP ports

	// pool supplies and recycles every packet of this network, so packet
	// conservation is an exact per-network count (pool.Live).
	pool packet.Pool

	// flows demultiplexes arriving packets: flows[id] holds both ends of
	// flow id, up to the highest ID registered, which FreeFlowID recycling
	// holds at the concurrent-flow peak. endpoints counts the ends in use.
	flows     [][2]flowEnd
	endpoints int

	nextFlow packet.FlowID
	freeFlow []packet.FlowID // retired IDs awaiting reuse (LIFO)

	// nextDom allocates the scheduling domains stamped on every event
	// (see allocDom).
	nextDom int32

	// Instrumentation (all nil/zero when observation is off, in which
	// case the simulation pays nothing beyond one nil check per hook).
	tracer          *obs.Tracer
	metrics         *obs.Registry
	rt              *obs.Trial
	scope           string
	flowMetricsLeft int
}

// NewNetwork returns an empty network bound to eng, wired as eng's
// Wiring says: with a scope, the network hands its tracer to every port,
// registers per-port metrics and schedules a metrics sampler on eng;
// with a check, the check runs last, before any node exists. An engine
// without a Wiring builds an unobserved, unchecked network.
func NewNetwork(eng *sim.Engine) *Network {
	n := &Network{Eng: eng}
	if w, _ := eng.Wiring.(*Wiring); w != nil {
		if w.Scope != nil {
			n.initObs(w.Scope)
		}
		if w.Check != nil {
			w.Check(n)
		}
	}
	return n
}

// NewHost adds a host with the given delay model.
func (n *Network) NewHost(name string, delay HostDelayConfig) *Host {
	h := &Host{
		id:    packet.NodeID(len(n.nodes)),
		name:  name,
		net:   n,
		eng:   n.Eng,
		dom:   n.allocDom(),
		rng:   n.Eng.Rand().Fork(),
		Delay: delay,
	}
	n.nodes = append(n.nodes, h)
	n.hosts = append(n.hosts, h)
	return h
}

// NewSwitch adds a switch.
func (n *Network) NewSwitch(name string) *Switch {
	s := &Switch{
		id:   packet.NodeID(len(n.nodes)),
		name: name,
		net:  n,
		dom:  n.allocDom(),
		rng:  n.Eng.Rand().Fork(),
	}
	n.nodes = append(n.nodes, s)
	n.switches = append(n.switches, s)
	return s
}

// Connect creates a full-duplex link between a and b: an egress port on
// each side with symmetric rate/delay taken from cfg. Per-side data
// capacity, ECN, RCP, and phantom settings also come from cfg; hosts get
// DefaultHostQueue if cfg.DataCapacity is zero.
func (n *Network) Connect(a, b Node, cfg PortConfig) (ab, ba *Port) {
	mk := func(owner, peer Node) *Port {
		c := cfg
		if _, isHost := owner.(*Host); isHost {
			if c.DataCapacity == 0 {
				c.DataCapacity = DefaultHostQueue
			}
			if c.CreditRatio == 0 {
				// The host-side credit limiter is a safety valve, not
				// the precise enforcer (that is the switch meter, as in
				// the paper's testbed). Giving it 2% headroom keeps it
				// from re-pacing the flow pacers' output, which would
				// erase the pacing jitter the fair-credit-drop
				// mechanism depends on (§3.1, Fig 6).
				c.CreditRatio = unit.CreditRatio * 1.02
			}
		}
		name := fmt.Sprintf("%s->%s", owner.Name(), peer.Name())
		return newPort(n.Eng, owner, c, name)
	}
	ab = mk(a, b)
	ba = mk(b, a)
	ab.peer, ba.peer = ba, ab
	ab.net, ba.net = n, n
	// Owner-side events (wake, tx-done) run in the owner node's domain;
	// each link direction gets its own domain for the events it delivers
	// to the far node (arrivals, PFC signals), so every domain has a
	// single scheduling source.
	ab.dom, ba.dom = domOf(a), domOf(b)
	ab.linkDom, ba.linkDom = n.allocDom(), n.allocDom()
	ab.rng, ba.rng = n.Eng.Rand().Fork(), n.Eng.Rand().Fork()
	ab.global, ba.global = len(n.ports), len(n.ports)+1
	a.addPort(ab)
	b.addPort(ba)
	n.ports = append(n.ports, ab, ba)
	ab.trace, ba.trace = n.tracer, n.tracer
	if cfg.RCP > 0 {
		n.startRCP(ab.rcp)
		n.startRCP(ba.rcp)
	}
	if n.metrics != nil {
		n.registerPortMetrics(ab)
		n.registerPortMetrics(ba)
	}
	return ab, ba
}

// allocDom hands out scheduling domains in topology-build order: one per
// node, one per link direction. Domain 0 is reserved for global events
// (experiment closures, faults, the metrics sampler).
func (n *Network) allocDom() int32 {
	n.nextDom++
	return n.nextDom
}

// domOf returns a node's scheduling domain. Foreign Node implementations
// (test stubs) get domain 0.
func domOf(nd Node) int32 {
	switch v := nd.(type) {
	case *Host:
		return v.dom
	case *Switch:
		return v.dom
	}
	return 0
}

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// AllPorts returns every egress port in the network.
func (n *Network) AllPorts() []*Port { return n.ports }

// Node returns the node with the given ID.
func (n *Network) Node(id packet.NodeID) Node { return n.nodes[id] }

// NextFlowID allocates a flow ID, preferring one retired by FreeFlowID
// over growing the ID space. Reuse keeps the flow table (indexed by ID)
// sized to the *concurrent* flow population instead of the total dialed
// over a run's lifetime — the difference between O(active) and O(total)
// resident memory on 100k-flow runs. Frees happen in the lifecycle
// reaper's deterministic dom-0 scan order, so the LIFO pop sequence —
// and therefore every ID-derived quantity (ECMP hashes, trace records)
// — is a function of the seed alone.
func (n *Network) NextFlowID() packet.FlowID {
	if k := len(n.freeFlow); k > 0 {
		id := n.freeFlow[k-1]
		n.freeFlow = n.freeFlow[:k-1]
		return id
	}
	n.nextFlow++
	return n.nextFlow
}

// FreeFlowID returns a retired flow's ID to the allocation pool. Call
// exactly once per ID, only after the flow's transport is fully torn
// down (endpoints unregistered, gauges released, no packets of the old
// flow in flight) — a later NextFlowID may hand the ID to a new flow
// immediately. Emits an EvFlowRetire trace event so ID-keyed consumers
// (the invariant checker's credit ledger) clear the old flow's state.
func (n *Network) FreeFlowID(id packet.FlowID) {
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.Eng.Now(), Type: obs.EvFlowRetire, Scope: "net", Flow: int64(id)})
	}
	n.freeFlow = append(n.freeFlow, id)
}

// Pool returns the pool every packet of this network comes from.
func (n *Network) Pool() *packet.Pool { return &n.pool }

// flowEnd is one end of a flow: the host it is at and the endpoint
// registered there. A nil host marks a free end.
type flowEnd struct {
	host *Host
	ep   Endpoint
}

// end returns h's end of flow, nil if it has none (h == nil: a free
// end). The unsigned compare rejects IDs above the table and negative.
func (n *Network) end(flow packet.FlowID, h *Host) *flowEnd {
	if uint64(flow) < uint64(len(n.flows)) {
		e := &n.flows[flow]
		for i := range e {
			if e[i].host == h {
				return &e[i]
			}
		}
	}
	return nil
}

// ActiveEndpoints counts the endpoints currently registered at any host.
// Flow retirement tests use it to assert the flow table drained.
func (n *Network) ActiveEndpoints() int { return n.endpoints }

// ResetStats restarts statistics on every port (used after warm-up).
func (n *Network) ResetStats() {
	for _, p := range n.ports {
		p.ResetStats()
	}
}

// Stats returns the network's counters: the field-wise sum of
// Port.Stats over AllPorts, except DataQueueMaxBytes, which is the
// largest port peak.
func (n *Network) Stats() PortStats {
	var t PortStats
	for _, p := range n.ports {
		s := p.Stats()
		t.TxPackets += s.TxPackets
		t.TxBytes += s.TxBytes
		t.TxDataBytes += s.TxDataBytes
		t.TxPayload += s.TxPayload
		t.TxCreditBytes += s.TxCreditBytes
		t.TxCreditPkts += s.TxCreditPkts
		t.DataDrops += s.DataDrops
		t.DataDropBytes += s.DataDropBytes
		t.CreditDrops += s.CreditDrops
		t.DataQueueBytes += s.DataQueueBytes
		t.DataQueueMaxBytes = max(t.DataQueueMaxBytes, s.DataQueueMaxBytes)
		t.DataQueueAvgBytes += s.DataQueueAvgBytes
		t.CreditQueueLen += s.CreditQueueLen
		t.PFCPauses += s.PFCPauses
		t.CorruptDrops += s.CorruptDrops
		t.FaultDrops += s.FaultDrops
		t.FaultDropBytes += s.FaultDropBytes
		t.FaultDups += s.FaultDups
		t.FaultCorrupts += s.FaultCorrupts
		t.FaultReorders += s.FaultReorders
	}
	return t
}

// linkUp reports whether the full-duplex link through p is healthy in
// BOTH directions — no failure mark and no hard-down state on either
// side. Routing (buildRoutesTo) calls this directly rather than any
// per-direction flag, so a unidirectional failure excludes the reverse
// direction from candidate routes everywhere: credits and data of one
// flow must traverse the same links in opposite directions (§3.1), and
// a link that cannot carry the returning class is no path at all.
func linkUp(p *Port) bool {
	return !p.failed && !p.down && !p.peer.failed && !p.peer.down
}

// SetLinkDown hard-fails (down=true) or restores the full-duplex link
// through p — both directions at once; a flap takes the whole cable.
// Going down flushes everything queued on either side into fault-drop
// accounting, loses in-flight packets at their arrival instant (see
// Port.transmit), and excludes the link from routing. Coming back up
// restarts both transmitters. The caller rebuilds routes (BuildRoutes)
// around the change, as a control plane would reconverge.
func (n *Network) SetLinkDown(p *Port, down bool) {
	a, b := p, p.peer
	if a.down == down {
		return
	}
	a.down, b.down = down, down
	if down {
		a.dropQueued()
		b.dropQueued()
	} else {
		a.kick()
		b.kick()
	}
}

// BuildRoutes computes shortest-path ECMP route tables for every switch
// toward every host, breadth-first from each destination. Candidate sets
// contain every neighbor on some shortest path; SetRoutes sorts them by
// neighbor ID for deterministic (and therefore symmetric) ECMP.
func (n *Network) BuildRoutes() {
	// A rebuild after traffic has started (failover, repair, flap
	// clearing) strands in-flight credits on paths their data will no
	// longer take; announce it so the invariant checker can void its
	// routing-dependent bounds for this run.
	if n.tracer != nil && n.Eng.Now() > 0 {
		n.tracer.Emit(obs.Event{T: n.Eng.Now(), Type: obs.EvRouteBuild, Scope: "net"})
	}
	adj := make([][]*Port, len(n.nodes)) // adj[node] = egress ports
	for _, nd := range n.nodes {
		adj[nd.ID()] = nd.Ports()
	}
	for _, sw := range n.switches {
		sw.growRoutes(packet.NodeID(len(n.nodes) - 1)) // once, not once per destination
	}
	sc := routeScratch{dist: make([]int, len(n.nodes)), queue: make([]packet.NodeID, 0, len(n.nodes))}
	for _, dst := range n.hosts {
		n.buildRoutesTo(dst.ID(), adj, &sc)
	}
}

// routeScratch is the working memory of buildRoutesTo, reused across
// the destinations of one BuildRoutes.
type routeScratch struct {
	dist  []int
	queue []packet.NodeID
	cand  []int
}

func (n *Network) buildRoutesTo(dst packet.NodeID, adj [][]*Port, sc *routeScratch) {
	const inf = int(1e9)
	dist := sc.dist
	for i := range dist {
		dist[i] = inf
	}
	dist[dst] = 0
	queue := append(sc.queue[:0], dst) // each node enters once: never outgrows its capacity
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, p := range adj[v] {
			// linkUp, not a per-direction check: a unidirectionally
			// failed link must be excluded from BOTH directions so the
			// forward data path and the reverse credit path stay
			// symmetric (§3.1).
			if !linkUp(p) {
				continue
			}
			u := p.peer.owner.ID()
			if dist[u] == inf {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	for _, sw := range n.switches {
		if dist[sw.ID()] == inf {
			sw.ClearRoutes(dst) // disconnected: drop any stale entry
			continue
		}
		cand := sc.cand[:0]
		for i, p := range sw.Ports() {
			if linkUp(p) && dist[p.peer.owner.ID()] == dist[sw.ID()]-1 {
				cand = append(cand, i)
			}
		}
		sc.cand = cand
		if len(cand) > 0 {
			sw.SetRoutes(dst, cand) // copies cand
		} else {
			sw.ClearRoutes(dst)
		}
	}
}

// TracePorts returns the sequence of egress ports a packet of the given
// flow traverses from src to dst, or nil if unroutable.
func (n *Network) TracePorts(src, dst packet.NodeID, flow packet.FlowID) []*Port {
	var ports []*Port
	cur := n.nodes[src]
	for cur.ID() != dst {
		var out *Port
		switch v := cur.(type) {
		case *Host:
			out = v.NIC()
		case *Switch:
			out = v.NextPort(src, dst, flow)
		}
		if out == nil || len(ports) > len(n.nodes) {
			return nil
		}
		ports = append(ports, out)
		cur = out.peer.owner
	}
	return ports
}

// TracePath returns the sequence of nodes a packet of the given flow
// would traverse from src to dst (inclusive), for path-symmetry checks.
func (n *Network) TracePath(src, dst packet.NodeID, flow packet.FlowID) []packet.NodeID {
	path := []packet.NodeID{src}
	cur := n.nodes[src]
	for cur.ID() != dst {
		var next Node
		switch v := cur.(type) {
		case *Host:
			next = v.NIC().peer.owner
		case *Switch:
			out := v.NextPort(src, dst, flow)
			if out == nil {
				return nil
			}
			next = out.peer.owner
		}
		path = append(path, next.ID())
		cur = next
		if len(path) > len(n.nodes) {
			return nil // loop: broken routing
		}
	}
	return path
}
