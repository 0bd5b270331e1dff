package netem

import (
	"fmt"
	"math"

	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// PortConfig controls one egress port (one direction of a link).
type PortConfig struct {
	Rate  unit.Rate    // line rate
	Delay sim.Duration // propagation delay to the peer

	// DataCapacity is the drop-tail byte budget for the data class.
	// Zero means unbounded (hosts use a large default).
	DataCapacity unit.Bytes

	// CreditQueueCap is each credit class's budget in packets (§3.1
	// buffer carving, 4–8). Zero means the default of 8.
	CreditQueueCap int

	// CreditBurst is the credit token bucket size in bytes; defaults to
	// two maximum-size credit packets.
	CreditBurst unit.Bytes

	// CreditRatio is the fraction of capacity metered to credits;
	// defaults to unit.CreditRatio (≈5.18%).
	CreditRatio float64

	// ECNThreshold marks CE on data packets when the instantaneous data
	// queue exceeds this many bytes (DCTCP K). Zero disables marking.
	ECNThreshold unit.Bytes

	// CreditTailDrop switches the credit queue to plain drop-tail (the
	// arriving credit is always the victim), disabling random-victim
	// replacement. Commodity switches behave this way; the paper relies
	// on pacing jitter + randomized credit sizes to de-synchronize
	// drops on such queues. Used by the Fig 6 jitter ablation.
	CreditTailDrop bool

	// RED enables probabilistic ECN marking between two thresholds
	// (DCQCN-style, see redMark), instead of the step marking of
	// ECNThreshold.
	RED bool

	// CreditClasses, when non-empty, splits the credit class into QoS
	// classes (§7): strict priority across Priority levels, weighted
	// deficit-round-robin within a level, all sharing the one credit
	// token bucket. Packets select a class via packet.Class.
	CreditClasses []CreditClassConfig

	// RCP enables per-port explicit rate computation (rcp.go) with this
	// RTT estimate d̄, which is also the update period. Zero disables it.
	RCP sim.Duration

	// Phantom enables a HULL phantom queue on this port (phantom.go).
	Phantom bool

	// PFC enables priority flow control on this link's ingress (pfc.go)
	// with this XOff threshold; XOn is half of it. Zero disables it.
	PFC unit.Bytes
}

func (c PortConfig) withDefaults() PortConfig {
	if c.CreditRatio == 0 {
		c.CreditRatio = unit.CreditRatio
	}
	if c.CreditBurst == 0 {
		c.CreditBurst = 2 * unit.MaxCredit
	}
	if c.CreditQueueCap <= 0 {
		c.CreditQueueCap = 8
	}
	return c
}

// Port is the egress side of one simplex channel from its owner node to
// the peer node. It owns the data and credit queues, the credit rate
// limiter, and the transmitter. The transmitter has no busy flag and, on
// an idle port, no event: the end of a serialisation is a key reserved
// on the engine (txEnd), queued as a transmitter-done event only when a
// packet is waiting for it — see the txEnd field and kick.
type Port struct {
	eng    *sim.Engine
	owner  Node
	peer   *Port
	net    *Network
	cfg    PortConfig
	name   string
	index  int // position in owner's port list
	global int // position in the network's port list

	// dom is the owner node's scheduling domain: wake and tx-done
	// events execute at the owner. linkDom is this link direction's own
	// domain for the events it delivers to the far node — arrivals and
	// PFC signals. rng is the port's private stream (credit
	// random-victim, RED), forked from the root RNG at Connect so its
	// draws depend on no other component's.
	dom     int32
	linkDom int32
	rng     *sim.Rand

	data    dataQueue
	credits creditScheduler
	bucket  tokenBucket

	rcp     *rcpMeter
	phantom *phantomQueue
	pfc     *pfcState

	// Transmitter state. txEnd is the key reserved on the engine for the
	// end of the current (or last) serialisation — the transmitter-done
	// event's exact place in dispatch order — and txQueued says whether
	// that event is actually in the queue. It is queued only when a
	// packet is waiting for the transmitter, at transmit or at a later
	// kick; with both queues empty its handler would do nothing, so the
	// transmitter is simply idle again once dispatch order has Reached
	// txEnd (a port that never transmitted holds the zero key, which every
	// engine has reached).
	//
	//	idle          !txQueued, Reached(txEnd)   kick may transmit
	//	serialising   !txQueued, !Reached(txEnd)  a kick that finds a packet waiting queues the event
	//	tx-done due    txQueued                   portTxDone clears it and kicks
	txEnd    sim.Key
	txQueued bool

	failed     bool
	down       bool // hard link-down (faults): queues flushed, arrivals lost
	dataPaused bool

	// psPerByte is the serialisation time of one byte at the line rate
	// when that is a whole number of picoseconds (8·10¹² divides the
	// rate: 1, 10, 25, 40 and 100 Gb/s do), else 0. It sits in the
	// padding after the flags above.
	psPerByte int32

	wake sim.EventID

	faultDrops     uint64
	faultDropBytes unit.Bytes

	// impair, when non-nil, holds the installed impairment block (model
	// loss, duplication, corruption, reordering, jitter — see impair.go).
	// Healthy ports pay one nil check at admit and one at transmit.
	impair        *impairment
	faultDups     uint64 // packets cloned by duplication impairments
	faultCorrupts uint64 // packets marked corrupt in flight
	faultReorders uint64 // packets held back by reorder impairments

	// trace, when non-nil, receives per-packet events. The nil check at
	// each emission site is the whole cost of disabled tracing.
	trace *obs.Tracer

	// Counters for utilization accounting; snapshot via Stats().
	txPackets     uint64
	txBytes       unit.Bytes
	txDataBytes   unit.Bytes // wire bytes of data-class transmissions
	txPayload     unit.Bytes // application payload bytes transmitted
	txCreditBytes unit.Bytes
	txCreditPkts  uint64

	// corruptDrops counts arrivals a host NIC's CRC check destroyed. It
	// is last so that no field the packet path touches moves.
	corruptDrops uint64
}

// PortStats is a point-in-time snapshot of a port's transmit, queue and
// fault counters — the only way to read them: the counters are private,
// Stats copies them and nothing else hands them out. Network.Stats sums
// it over every port of a network. ResetStats zeroes every field except
// the instantaneous occupancies.
type PortStats struct {
	TxPackets     uint64     // frames transmitted (all classes)
	TxBytes       unit.Bytes // wire bytes transmitted (all classes)
	TxDataBytes   unit.Bytes // wire bytes of data-class transmissions
	TxPayload     unit.Bytes // application payload bytes transmitted
	TxCreditBytes unit.Bytes // wire bytes of credit transmissions
	TxCreditPkts  uint64     // credit packets transmitted

	DataDrops     uint64     // data-class drop-tail drops
	DataDropBytes unit.Bytes // wire bytes dropped from the data class
	CreditDrops   uint64     // credit-class drops (all classes)

	DataQueueBytes    unit.Bytes // instantaneous data occupancy
	DataQueueMaxBytes unit.Bytes // peak data occupancy since reset
	DataQueueAvgBytes float64    // time-weighted mean data occupancy since reset
	CreditQueueLen    int        // instantaneous credit occupancy
	PFCPauses         uint64     // PAUSE frames this ingress signalled
	CorruptDrops      uint64     // frames arriving here that failed the host NIC's CRC check

	FaultDrops     uint64     // packets destroyed by injected faults
	FaultDropBytes unit.Bytes // wire bytes destroyed by injected faults
	FaultDups      uint64     // packets cloned by duplication impairments
	FaultCorrupts  uint64     // packets marked corrupt in flight
	FaultReorders  uint64     // packets held back by reorder impairments
}

// Stats returns a snapshot of the port's counters. It changes nothing:
// a port read mid-run runs on exactly as if it had not been.
func (p *Port) Stats() PortStats {
	var pauses uint64
	if p.pfc != nil {
		pauses = p.pfc.pauses
	}
	return PortStats{
		TxPackets:         p.txPackets,
		TxBytes:           p.txBytes,
		TxDataBytes:       p.txDataBytes,
		TxPayload:         p.txPayload,
		TxCreditBytes:     p.txCreditBytes,
		TxCreditPkts:      p.txCreditPkts,
		DataDrops:         p.data.stats.Drops,
		DataDropBytes:     p.data.stats.DropBytes,
		CreditDrops:       p.credits.drops(),
		DataQueueBytes:    p.data.curBytes(),
		DataQueueMaxBytes: p.data.stats.MaxBytes,
		DataQueueAvgBytes: p.data.stats.avgBytes(p.eng.Now(), p.data.curBytes()),
		CreditQueueLen:    p.credits.len(),
		PFCPauses:         pauses,
		CorruptDrops:      p.corruptDrops,
		FaultDrops:        p.faultDrops,
		FaultDropBytes:    p.faultDropBytes,
		FaultDups:         p.faultDups,
		FaultCorrupts:     p.faultCorrupts,
		FaultReorders:     p.faultReorders,
	}
}

func newPort(eng *sim.Engine, owner Node, cfg PortConfig, name string) *Port {
	cfg = cfg.withDefaults()
	p := &Port{eng: eng, owner: owner, cfg: cfg, name: name}
	if bitPs := 8 * int64(sim.Second); cfg.Rate > 0 && bitPs%int64(cfg.Rate) == 0 && bitPs/int64(cfg.Rate) <= math.MaxInt32 {
		p.psPerByte = int32(bitPs / int64(cfg.Rate))
	}
	p.data.cap = cfg.DataCapacity
	p.credits = newCreditScheduler(cfg.CreditClasses, cfg.CreditQueueCap)
	p.bucket = newTokenBucket(cfg.Rate.Scale(cfg.CreditRatio), cfg.CreditBurst)
	if cfg.RCP > 0 {
		p.rcp = newRCPMeter(cfg.Rate, cfg.RCP)
	}
	if cfg.Phantom {
		p.phantom = newPhantomQueue(cfg.Rate)
	}
	if cfg.PFC > 0 {
		p.pfc = &pfcState{}
	}
	return p
}

// Name returns the port's diagnostic name ("src->dst").
func (p *Port) Name() string { return p.name }

// Number returns 1 + the port's position in Network.AllPorts: the
// non-zero handle that names a port where a pointer or a name would be
// too heavy — obs.Event.Port on every trace event the port emits,
// packet.PFCIngress on a frame it buffered. Zero means "no port".
func (p *Port) Number() int32 { return int32(p.global) + 1 }

// Peer returns the port on the far side of the link.
func (p *Port) Peer() *Port { return p.peer }

// Rate returns the configured line rate.
func (p *Port) Rate() unit.Rate { return p.cfg.Rate }

// Config returns the port configuration.
func (p *Port) Config() PortConfig { return p.cfg }

// creditEmpty reports whether any credit is queued.
func (p *Port) creditEmpty() bool { return p.credits.empty() }

// creditPop dequeues the next credit per the class policy.
func (p *Port) creditPop(now sim.Time) *packet.Packet { return p.credits.pop(now) }

// ResetStats restarts occupancy averaging and zeroes every counter
// Stats reports, so an experiment can ignore its warm-up phase.
func (p *Port) ResetStats() {
	now := p.eng.Now()
	p.data.stats = queueStats{}
	p.data.stats.resetWindow(now)
	for i := range p.credits.classes {
		c := &p.credits.classes[i]
		c.stats = queueStats{}
		c.stats.resetWindow(now)
		c.tx = 0
	}
	p.txPackets, p.txBytes, p.txDataBytes, p.txPayload = 0, 0, 0, 0
	p.txCreditBytes, p.txCreditPkts = 0, 0
	p.faultDrops, p.faultDropBytes = 0, 0
	p.faultDups, p.faultCorrupts, p.faultReorders, p.corruptDrops = 0, 0, 0, 0
	if p.pfc != nil {
		p.pfc.pauses = 0
	}
}

// Enqueue places pkt on the appropriate egress class, applying drop-tail,
// ECN marking, RCP stamping, and phantom-queue marking. The port takes
// ownership of pkt (dropped packets are recycled).
func (p *Port) Enqueue(pkt *packet.Packet) {
	now := p.eng.Now()
	// Fault admit hooks: a downed link destroys everything offered to
	// it, and an installed loss model a per-class share (impairAdmit).
	// Both run before any queueing state changes so the drop accounting
	// (and the packet pool) stays balanced.
	if p.down {
		p.faultDrop(pkt, now)
		return
	}
	if im := p.impair; im != nil {
		clone, ok := p.impairAdmit(im, pkt, now)
		if !ok {
			return
		}
		p.enqueueAdmitted(pkt, now)
		if clone != nil {
			// The clone rides the same egress class right behind the
			// original (netem's duplication is in-order, like tc's).
			p.enqueueAdmitted(clone, now)
		}
		return
	}
	p.enqueueAdmitted(pkt, now)
}

// enqueueAdmitted is the back half of Enqueue: classing, marking, and
// queueing for a packet that survived the fault/impairment admit hooks.
func (p *Port) enqueueAdmitted(pkt *packet.Packet, now sim.Time) {
	if pkt.IsCredit() {
		var rng *sim.Rand
		if !p.cfg.CreditTailDrop {
			rng = p.rng
		}
		// Both events of this branch report the credit queue around the
		// push; a tracer subscribed to neither (the invariant checker
		// alone) skips the before-and-after reads.
		tr := p.trace
		if tr != nil && !tr.Enabled(obs.EvCreditDrop) && !tr.Enabled(obs.EvCreditQDepth) {
			tr = nil
		}
		var dropsBefore uint64
		var trFlow, trSeq int64
		var trWire unit.Bytes
		if tr != nil {
			dropsBefore = p.credits.drops()
			trFlow, trSeq, trWire = int64(pkt.Flow), pkt.Seq, pkt.Wire
		}
		if dropped := p.credits.push(now, pkt, rng); dropped != nil {
			p.net.pool.Put(dropped) // credit overflow: the arrival or a displaced victim
		}
		if tr != nil {
			qlen := float64(p.credits.len())
			if p.credits.drops() > dropsBefore {
				tr.Emit(obs.Event{T: now, Type: obs.EvCreditDrop, Port: p.Number(), Scope: p.name,
					Flow: trFlow, Seq: trSeq, Bytes: trWire, Val: qlen})
			}
			tr.Emit(obs.Event{T: now, Type: obs.EvCreditQDepth, Port: p.Number(), Scope: p.name, Val: qlen})
		}
		p.kick()
		return
	}
	if p.phantom != nil && pkt.Kind == packet.Data {
		p.phantom.onArrival(now, pkt)
	}
	if p.cfg.ECNThreshold > 0 && pkt.ECNCapable && pkt.Kind == packet.Data &&
		p.data.curBytes()+pkt.Wire > p.cfg.ECNThreshold {
		pkt.CE = true
	}
	if p.cfg.RED && pkt.ECNCapable && pkt.Kind == packet.Data {
		redMark(p.data.curBytes(), pkt, p.rng)
	}
	if p.rcp != nil && pkt.Kind == packet.Data {
		p.rcp.onArrival(now, pkt, p.data.curBytes())
	}
	if !p.data.push(now, pkt) {
		if tr := p.trace; tr != nil {
			tr.Emit(obs.Event{T: now, Type: obs.EvDataDrop, Port: p.Number(), Scope: p.name,
				Flow: int64(pkt.Flow), Seq: pkt.Seq, Bytes: pkt.Wire,
				Val: float64(p.data.curBytes())})
		}
		p.pfcOnDepart(pkt) // dropped: release ingress accounting
		p.net.pool.Put(pkt)
	} else if tr := p.trace; tr != nil {
		qb := float64(p.data.curBytes())
		tr.Emit(obs.Event{T: now, Type: obs.EvDataEnq, Port: p.Number(), Scope: p.name,
			Flow: int64(pkt.Flow), Seq: pkt.Seq, Bytes: pkt.Wire, Val: qb,
			Aux: float64(pkt.CreditSeq), Aux2: float64(pkt.Kind)})
		if tr.Enabled(obs.EvQueueDepth) {
			tr.Emit(obs.Event{T: now, Type: obs.EvQueueDepth, Port: p.Number(), Scope: p.name,
				Val: qb, Aux: float64(p.data.len())})
		}
	}
	p.kick()
}

// waiting reports whether either egress class holds a packet.
func (p *Port) waiting() bool { return !p.data.empty() || !p.creditEmpty() }

// kick starts the transmitter if it is idle and a packet is eligible.
// While it is serialising, kick makes sure the transmitter-done event is
// queued as soon as a packet is waiting for it.
func (p *Port) kick() {
	if p.txQueued {
		return
	}
	if !p.eng.Reached(p.txEnd) {
		if p.waiting() {
			p.queueTxDone()
		}
		return
	}
	now := p.eng.Now()
	// Credits get strict priority when the token bucket allows; the
	// bucket caps them to CreditRatio of capacity so data is never
	// starved beyond the reserved share. Each credit is charged its
	// nominal MinFrame cost regardless of its randomized wire size, so
	// size randomization (§3.1) does not shave the credited data rate:
	// one credit must keep authorizing one MTU of returning data.
	if !p.creditEmpty() && p.bucket.have(now, unit.MinFrame) {
		p.bucket.take(unit.MinFrame)
		p.transmit(p.creditPop(now))
		return
	}
	if !p.data.empty() && !p.dataPaused {
		p.wake.Cancel()
		p.transmit(p.data.pop(now))
		return
	}
	if !p.creditEmpty() {
		// Only credits are waiting; wake when tokens accrue.
		if !p.wake.Pending() {
			at := p.bucket.readyAt(now, unit.MinFrame)
			p.wake = p.eng.At2D(p.dom, at, portWake, p, nil, 0)
		}
	}
}

// Typed event handlers (sim.Handler2). These are the steady-state
// packet events — transmitter done, wire arrival, token-bucket wake,
// and PFC pause/resume — scheduled through Engine.At2 (transmitter done
// through Engine.Arm, at its reserved key) so the per-packet path never
// allocates: the handler is a static function and the receiver/packet
// pointers are stored inline in the recycled event struct.

// portWake re-runs the scheduler when credit tokens have accrued.
func portWake(obj, _ any, _ uint64) { obj.(*Port).kick() }

// portTxDone frees the transmitter after one serialization time. It is
// queued only for a transmission some packet waited behind (see kick);
// dispatch order has reached txEnd by the time it runs.
func portTxDone(obj, _ any, _ uint64) {
	p := obj.(*Port)
	p.txQueued = false
	p.kick()
}

// queueTxDone puts the transmitter-done event on the queue at its
// reserved key.
func (p *Port) queueTxDone() {
	p.txQueued = true
	p.eng.Arm(p.txEnd, portTxDone, p, nil, 0)
}

// portArrive lands pkt at the far end of p's link after propagation.
func portArrive(obj, aux any, _ uint64) {
	p := obj.(*Port)
	pkt := aux.(*packet.Packet)
	peer := p.peer
	if p.down || peer.down {
		// The link flapped while the packet was in flight: it is lost
		// on the wire, never reaching the peer. Accounted at the
		// receiving side.
		peer.faultDrop(pkt, peer.eng.Now())
		return
	}
	peer.pfcOnArrival(pkt)
	peer.owner.Deliver(pkt, peer)
}

// portSetDataPaused applies a PFC PAUSE (arg 1) or RESUME (arg 0) after
// its propagation delay.
func portSetDataPaused(obj, _ any, arg uint64) {
	obj.(*Port).setDataPaused(arg != 0)
}

// txTime is unit.TxTime(n, p.Rate()) without its two divisions where
// the rate allows: a multiplication when psPerByte is set.
func (p *Port) txTime(n unit.Bytes) sim.Duration {
	if p.psPerByte != 0 {
		return sim.Duration(n) * sim.Duration(p.psPerByte)
	}
	return unit.TxTime(n, p.cfg.Rate)
}

func (p *Port) transmit(pkt *packet.Packet) {
	tx := p.txTime(pkt.Wire)
	// Departure-side impairments. Rate jitter stretches serialization
	// (the transmitter stays busy longer — real head-of-line impact);
	// delay jitter and reordering only add wire time, so they delay this
	// packet without touching the transmitter. All extras are ≥ 0:
	// arrivals never land earlier than the configured propagation delay.
	var wireExtra sim.Duration
	if im := p.impair; im != nil {
		if f := im.rateJitter; f != nil {
			if s := f(); s > 0 {
				tx += sim.Duration(float64(tx) * s)
			}
		}
		wireExtra = p.impairDepart(im)
	}
	p.txPackets++
	p.txBytes += pkt.Wire
	switch pkt.Kind {
	case packet.Data:
		p.txDataBytes += pkt.Wire
		p.txPayload += pkt.Payload
	case packet.Credit:
		p.txCreditBytes += pkt.Wire
		p.txCreditPkts++
		p.credits.classes[p.credits.classIndex(pkt)].tx++
	}
	if tr := p.trace; tr != nil {
		if pkt.Kind == packet.Credit {
			tr.Emit(obs.Event{T: p.eng.Now(), Type: obs.EvCreditTx, Port: p.Number(), Scope: p.name,
				Flow: int64(pkt.Flow), Seq: pkt.Seq, Bytes: pkt.Wire})
			if tr.Enabled(obs.EvCreditQDepth) {
				tr.Emit(obs.Event{T: p.eng.Now(), Type: obs.EvCreditQDepth, Port: p.Number(),
					Scope: p.name, Val: float64(p.credits.len())})
			}
		} else {
			qb := float64(p.data.curBytes())
			tr.Emit(obs.Event{T: p.eng.Now(), Type: obs.EvDataDeq, Port: p.Number(), Scope: p.name,
				Flow: int64(pkt.Flow), Seq: pkt.Seq, Bytes: pkt.Wire, Val: qb})
			if tr.Enabled(obs.EvQueueDepth) {
				tr.Emit(obs.Event{T: p.eng.Now(), Type: obs.EvQueueDepth, Port: p.Number(), Scope: p.name,
					Val: qb, Aux: float64(p.data.len())})
			}
		}
	}
	p.pfcOnDepart(pkt)
	// Reserve the transmitter-done event's key at the point the event
	// used to be scheduled, so every other event keeps its sequence
	// number; queue it only if a packet is already waiting behind this
	// one (kick queues it later if one arrives mid-serialisation). A
	// zero-length serialisation can reserve a key dispatch order has
	// already passed: only the queued event keeps the port busy then.
	done := p.eng.Now() + tx
	p.txEnd = p.eng.Reserve(p.dom, done)
	if p.waiting() || p.eng.Reached(p.txEnd) {
		p.queueTxDone()
	}
	pkt.Hops++
	// The arrival executes at the far node: schedule it in this link
	// direction's delivery domain.
	arrive := done + p.cfg.Delay + wireExtra
	p.eng.At2D(p.linkDom, arrive, portArrive, p, pkt, 0)
}

func (p *Port) String() string {
	return fmt.Sprintf("port(%s %v)", p.name, p.cfg.Rate)
}

// Fail marks this egress direction as failed. Routing recomputation
// (Network.BuildRoutes) excludes the whole link — both directions — so
// credits and data never split across a half-broken link (§3.1:
// symmetric routing "requires a mechanism to exclude links that fail
// unidirectionally"). Fail is a control-plane state only: packets
// already queued or in flight still complete (use Network.SetLinkDown
// for a hard fault that loses them).
func (p *Port) Fail() { p.failed = true }

// Restore clears a failure.
func (p *Port) Restore() { p.failed = false }

// faultDrop destroys pkt at this port on behalf of an injected fault,
// keeping drop accounting and the packet pool balanced.
func (p *Port) faultDrop(pkt *packet.Packet, now sim.Time) {
	p.faultDrops++
	p.faultDropBytes += pkt.Wire
	if tr := p.trace; tr != nil {
		tr.Emit(obs.Event{T: now, Type: obs.EvFaultDrop, Port: p.Number(), Scope: p.name,
			Flow: int64(pkt.Flow), Seq: pkt.Seq, Bytes: pkt.Wire})
	}
	p.pfcOnDepart(pkt) // release ingress accounting if buffered here
	p.net.pool.Put(pkt)
}

// dropQueued flushes both egress classes, destroying every queued
// packet with fault accounting. Called when the link goes hard-down:
// a real link flap loses whatever was buffered behind it.
func (p *Port) dropQueued() {
	now := p.eng.Now()
	for !p.data.empty() {
		p.faultDrop(p.data.pop(now), now)
	}
	for !p.creditEmpty() {
		p.faultDrop(p.creditPop(now), now)
	}
}
