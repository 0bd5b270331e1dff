package netem

import (
	"fmt"

	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Endpoint is one side of a transport flow registered at a host. The host
// demultiplexes arriving packets to endpoints by flow ID.
type Endpoint interface {
	OnPacket(pkt *packet.Packet)
}

// HostDelayConfig models the host credit-processing delay: the time
// between a credit arriving at a sender NIC and the corresponding data
// packet being offered for transmission. The paper's SoftNIC prototype
// measured a median of 0.38 µs with a 99.99th percentile of 6.2 µs
// (Fig 14a); a hardware NIC would have Spread ≈ 1 µs.
type HostDelayConfig struct {
	Min    sim.Duration // minimum processing delay
	Spread sim.Duration // max − min; samples are Min + truncated-exp(Spread)
}

// SoftNICDelay reproduces the paper's software prototype (∆d_host≈5.1 µs).
func SoftNICDelay() HostDelayConfig {
	return HostDelayConfig{Min: sim.Micros(0.3), Spread: sim.Micros(5.1)}
}

// HardwareNICDelay models a NIC-hardware implementation (∆d_host≈1 µs).
func HardwareNICDelay() HostDelayConfig {
	return HostDelayConfig{Min: sim.Micros(0.2), Spread: sim.Micros(1.0)}
}

// Sample draws one processing delay. Fig 14a's measured distribution
// has a tight body (median ≈ 0.38 µs) with a rare heavy tail reaching
// 6.2 µs at the 99.99th percentile; a single exponential cannot produce
// that median-to-tail ratio, so the model mixes a fast common path with
// a 5% slow path (interrupt/DMA hiccups), truncated at Min+Spread.
func (c HostDelayConfig) Sample(rng *sim.Rand) sim.Duration {
	if c.Spread <= 0 {
		return c.Min
	}
	var d sim.Duration
	if rng.Float64() < 0.95 {
		d = sim.Duration(rng.Exp() * float64(c.Spread) / 40)
	} else {
		d = sim.Duration(rng.Exp() * float64(c.Spread) / 5.3)
	}
	if d > c.Spread {
		d = c.Spread
	}
	return c.Min + d
}

// Host is an end system: a NIC egress port toward its ToR switch, a
// credit-processing delay model, and endpoints in its network's flow table.
type Host struct {
	id   packet.NodeID
	name string
	net  *Network
	eng  *sim.Engine
	rng  *sim.Rand

	dom int32 // the host's scheduling domain

	ports []*Port // hosts have exactly one in all our topologies

	Delay HostDelayConfig

	// stallUntil, when in the future, models a host-side stall (a GC
	// pause, hypervisor preemption, interrupt storm): credit processing
	// is frozen and credited data is not offered for transmission until
	// this instant. Injected by internal/faults.
	stallUntil sim.Time

	// Unclaimed counts packets that arrived for unregistered flows.
	Unclaimed uint64
}

// ID returns the host's node ID.
func (h *Host) ID() packet.NodeID { return h.id }

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Ports returns the host's ports (the NIC uplink).
func (h *Host) Ports() []*Port { return h.ports }

func (h *Host) addPort(p *Port) {
	p.index = len(h.ports)
	h.ports = append(h.ports, p)
}

// NIC returns the host's uplink egress port.
func (h *Host) NIC() *Port {
	if len(h.ports) == 0 {
		panic(fmt.Sprintf("netem: host %s has no NIC", h.name))
	}
	return h.ports[0]
}

// Rand returns the host's private random stream.
func (h *Host) Rand() *sim.Rand { return h.rng }

// Tracer returns the network's tracer, or nil when tracing is off.
// Endpoints at this host fetch it per emission rather than caching it
// at dial time, so a later Network.SetTracer reaches them too.
func (h *Host) Tracer() *obs.Tracer { return h.net.tracer }

// Dom returns the host's scheduling domain. Transport endpoint timers
// and closures are scheduled in this domain (Engine.At2D/AfterD).
func (h *Host) Dom() int32 { return h.dom }

// Metrics returns the network's metrics registry, or nil.
func (h *Host) Metrics() *obs.Registry { return h.net.metrics }

// ClaimFlowMetrics forwards to Network.ClaimFlowMetrics.
func (h *Host) ClaimFlowMetrics() *obs.Registry { return h.net.ClaimFlowMetrics() }

// Engine returns the simulation engine executing this host's events.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Network returns the network this host belongs to.
func (h *Host) Network() *Network { return h.net }

// LineRate returns the NIC line rate.
func (h *Host) LineRate() unit.Rate { return h.NIC().Rate() }

// Pool returns the packet pool of the host's network (Network.Pool).
func (h *Host) Pool() *packet.Pool { return &h.net.pool }

// Register attaches ep as the handler for flow at this host, replacing
// the endpoint the flow had here. A flow has at most two hosts.
func (h *Host) Register(flow packet.FlowID, ep Endpoint) {
	if flow < 0 {
		panic(fmt.Sprintf("netem: negative flow ID %d registered at %s", flow, h.name))
	}
	if ep == nil {
		panic(fmt.Sprintf("netem: nil endpoint registered for flow %d at %s", flow, h.name))
	}
	if k := int(flow) + 1 - len(h.net.flows); k > 0 {
		h.net.flows = append(h.net.flows, make([][2]flowEnd, k)...)
	}
	end := h.net.end(flow, h)
	if end == nil {
		if end = h.net.end(flow, nil); end == nil {
			panic(fmt.Sprintf("netem: flow %d registered at a third host %s", flow, h.name))
		}
		h.net.endpoints++
	}
	*end = flowEnd{h, ep}
}

// Unregister removes the handler for flow at this host.
func (h *Host) Unregister(flow packet.FlowID) {
	if end := h.net.end(flow, h); end != nil {
		*end = flowEnd{}
		h.net.endpoints--
	}
}

// Send transmits pkt out the host NIC, stamping the send time.
func (h *Host) Send(pkt *packet.Packet) {
	pkt.SentAt = h.eng.Now()
	h.NIC().Enqueue(pkt)
}

// SampleProcDelay draws a credit-processing delay from the host model.
func (h *Host) SampleProcDelay() sim.Duration { return h.Delay.Sample(h.rng) }

// StallCreditsUntil freezes this host's credit processing until t
// (extends, never shortens, an active stall). Credits that arrive
// during the stall are not lost — the sender's response is simply
// deferred to the stall end plus its normal processing delay, exactly
// like a host whose credit loop was preempted.
func (h *Host) StallCreditsUntil(t sim.Time) {
	if t > h.stallUntil {
		h.stallUntil = t
	}
}

// CreditStallUntil returns the instant before which credit processing
// is stalled (zero or past when no stall is active). Senders consult it
// when scheduling credited data emission.
func (h *Host) CreditStallUntil() sim.Time { return h.stallUntil }

// Deliver hands pkt to the endpoint registered for its flow.
func (h *Host) Deliver(pkt *packet.Packet, in *Port) {
	if in != nil {
		in.pfcOnDepart(pkt) // consumed here: release ingress accounting
	}
	if pkt.Corrupt {
		// NIC CRC check: the damaged frame spent queue space and wire
		// time all the way here, but the transport never sees it. It is
		// destroyed before demux, like real receive-path CRC filtering,
		// and counted on the port it arrived at.
		in.corruptDrops++
		if tr := h.Tracer(); tr != nil {
			tr.Emit(obs.Event{T: h.eng.Now(), Type: obs.EvCorruptDrop, Scope: h.name,
				Flow: int64(pkt.Flow), Seq: pkt.Seq, Bytes: pkt.Wire})
		}
		h.net.pool.Put(pkt)
		return
	}
	if end := h.net.end(pkt.Flow, h); end != nil {
		end.ep.OnPacket(pkt)
		return
	}
	h.Unclaimed++
	h.net.pool.Put(pkt)
}

func (h *Host) String() string { return fmt.Sprintf("host(%s)", h.name) }
