package transport

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// CC is the pluggable congestion-control policy of a Conn. Window-based
// policies adjust c.Cwnd (in packets); paced policies adjust c.PaceRate.
type CC interface {
	// Init runs once when the connection starts, before its first
	// segment. It is where a policy declares how its Conn sends: Paced,
	// ECN, MinCwnd and the initial PaceRate are the CC's to set.
	Init(c *Conn)
	// OnAck runs for every new cumulative ACK. acked is the newly acked
	// payload; the ack packet itself carries ECN echo / RCP rate / delay.
	OnAck(c *Conn, acked unit.Bytes, ack *packet.Packet, rtt sim.Duration)
	// OnFastRetransmit runs when triple-dupack loss is inferred.
	OnFastRetransmit(c *Conn)
	// OnTimeout runs when the retransmission timer fires.
	OnTimeout(c *Conn)
}

// The reliability machinery's constants: the fast-retransmit trigger,
// the initial window, the window and RTO ceilings, and the host transmit
// jitter. Every segment carries unit.MTUPayload bytes. txJitter
// models host transmit-timing variance (kernel scheduling, NIC DMA):
// each data segment is delayed uniformly in [0, txJitter] before hitting
// the NIC, FIFO order preserved. Without it, two ACK-clocked flows
// phase-lock on a full drop-tail queue and one starves — a determinism
// artifact no real host exhibits.
const (
	dupAckThreshold = 3  // dupacks before fast retransmit
	initCwnd        = 10 // packets (ns-2 style IW)
	maxCwnd         = 10000
	maxRTO          = 100 * sim.Millisecond
	txJitter        = sim.Microsecond
)

// Conn is a reliable unidirectional byte stream from Flow.Sender to
// Flow.Receiver with congestion control. It registers one endpoint at
// each host and runs entirely inside the simulation.
type Conn struct {
	Flow *Flow
	CC   CC

	// How the sender transmits, set by CC.Init: Paced sends one segment
	// per PaceRate interval instead of filling Cwnd, ECN sets ECT on
	// data packets, and MinCwnd is ClampCwnd's floor (default 1).
	Paced   bool
	ECN     bool
	MinCwnd float64

	// Sender state. Sequence numbers are payload byte offsets.
	Cwnd         float64   // window in packets (window mode)
	PaceRate     unit.Rate // current rate (Paced; default line rate)
	SRTT         sim.Duration
	RTTVar       sim.Duration
	nextSeq      int64 // next new byte to send
	sendPoint    int64 // next byte to (re)transmit; <= nextSeq during recovery
	ackSeq       int64 // highest cumulative ack received
	dupAcks      int
	inRecovery   bool
	recoveryEnd  int64
	rtoTimer     sim.EventID
	paceTimer    sim.EventID
	stopped      bool
	senderActive bool
	rng          *sim.Rand
	lastTx       sim.Time     // keeps jittered emissions FIFO
	minRTO       sim.Duration // the RTO floor

	// Receiver state.
	expected int64
	ooo      map[int64]unit.Bytes // out-of-order segments: seq -> len

	// Counters.
	Retransmits  uint64
	Timeouts     uint64
	SentSegments uint64
	MarkedAcks   uint64
	AckedPkts    uint64
}

type connSender struct{ c *Conn }
type connReceiver struct{ c *Conn }

func (s connSender) OnPacket(p *packet.Packet)   { s.c.onAckPacket(p) }
func (r connReceiver) OnPacket(p *packet.Packet) { r.c.onDataPacket(p) }

// Typed event handlers (sim.Handler2): the per-ACK RTO re-arm, the
// per-segment pace timer, and the per-segment jittered transmit all
// schedule through these static functions so a window- or rate-paced
// sender's steady state stays off the heap allocator.

func connStart(obj, _ any, _ uint64)    { obj.(*Conn).start() }
func connPaceNext(obj, _ any, _ uint64) { obj.(*Conn).paceNext() }
func connOnRTO(obj, _ any, _ uint64)    { obj.(*Conn).onRTO() }

// connSend pushes a jitter-delayed segment out the sender NIC.
func connSend(obj, aux any, _ uint64) {
	obj.(*Conn).Flow.Sender.Send(aux.(*packet.Packet))
}

// NewConn wires a connection for f and schedules its start. cc may not
// be nil; minRTO is the run's RTO floor (zero: 10 ms, a common
// datacenter TCP setting).
func NewConn(f *Flow, cc CC, minRTO sim.Duration) *Conn {
	if minRTO == 0 {
		minRTO = 10 * sim.Millisecond
	}
	c := &Conn{
		Flow:     f,
		CC:       cc,
		MinCwnd:  1,
		Cwnd:     initCwnd,
		PaceRate: f.Sender.LineRate(),
		ooo:      make(map[int64]unit.Bytes),
		rng:      f.Sender.Rand().Fork(),
		minRTO:   minRTO,
	}
	f.Sender.Register(f.ID, connSender{c})
	f.Receiver.Register(f.ID, connReceiver{c})
	f.Sender.Engine().At2D(f.Sender.Dom(), f.StartAt, connStart, c, nil, 0)
	return c
}

func (c *Conn) start() {
	if c.stopped {
		return
	}
	c.Flow.Started = true
	c.senderActive = true
	c.CC.Init(c)
	c.armRTO()
	if c.Paced {
		c.paceNext()
	} else {
		c.pump()
	}
}

// Stop halts the connection and unregisters its endpoints.
func (c *Conn) Stop() {
	c.stopped = true
	c.rtoTimer.Cancel()
	c.paceTimer.Cancel()
	c.Flow.Sender.Unregister(c.Flow.ID)
	c.Flow.Receiver.Unregister(c.Flow.ID)
}

// Quiesced reports whether the connection has wound down on its own:
// every payload byte is cumulatively acknowledged and neither the RTO
// nor the pacing timer is pending (both stop re-arming once all data is
// acked). Self-rescheduling CC timers are not covered — they observe
// Stopped() and end themselves after Retire. Long-running flows
// (Size == 0) never quiesce. As with core.Session, callers should wait
// a grace period past FinishTime before retiring so duplicate ACKs
// still in flight drain to a registered endpoint.
func (c *Conn) Quiesced() bool {
	return c.allAcked() && !c.rtoTimer.Pending() && !c.paceTimer.Pending()
}

// Retire tears the connection down for the lifecycle reaper. Conns
// register no per-flow gauges, so this is Stop plus the contract that
// dropping the last reference makes the connection collectable.
func (c *Conn) Retire() { c.Stop() }

// Engine returns the simulation engine executing this connection's
// events (for CC implementations).
func (c *Conn) Engine() *sim.Engine { return c.Flow.Sender.Engine() }

// Stopped reports whether Stop was called (CC timers use this to end
// their self-rescheduling).
func (c *Conn) Stopped() bool { return c.stopped }

// NextSeqNum returns the next new payload byte the sender will emit.
func (c *Conn) NextSeqNum() int64 { return c.nextSeq }

// ClampCwnd bounds Cwnd to [MinCwnd, 10,000 packets].
func (c *Conn) ClampCwnd() {
	if c.Cwnd < c.MinCwnd {
		c.Cwnd = c.MinCwnd
	}
	if c.Cwnd > maxCwnd {
		c.Cwnd = maxCwnd
	}
}

// BytesInFlight returns unacknowledged payload bytes.
func (c *Conn) BytesInFlight() unit.Bytes { return unit.Bytes(c.nextSeq - c.ackSeq) }

// CwndBytes returns the window in bytes.
func (c *Conn) CwndBytes() unit.Bytes {
	return unit.Bytes(c.Cwnd * float64(unit.MTUPayload))
}

// totalBytes returns the flow size (or the long-running sentinel).
func (c *Conn) totalBytes() int64 {
	if c.Flow.Size == 0 {
		return 1 << 50
	}
	return int64(c.Flow.Size)
}

// pump transmits as much as the window allows (window mode).
func (c *Conn) pump() {
	if c.stopped || c.Paced {
		return
	}
	for c.sendPoint < c.totalBytes() {
		// Retransmissions (sendPoint < nextSeq) are always allowed —
		// they do not add to flight size.
		if c.sendPoint >= c.nextSeq && c.BytesInFlight()+unit.MTUPayload > c.CwndBytes() {
			return
		}
		c.emitSegment()
	}
}

// paceNext emits one segment and schedules the next (Paced).
func (c *Conn) paceNext() {
	if c.stopped || !c.Paced {
		return
	}
	if c.sendPoint >= c.totalBytes() {
		c.paceTimer.Cancel()
		return // all data out; wait for acks / RTO
	}
	// Keep a generous window cap so a dead receiver can't absorb
	// unbounded retransmissions.
	if c.sendPoint >= c.nextSeq && c.BytesInFlight() > 4*unit.MB {
		c.paceTimer.Cancel()
		return
	}
	c.emitSegment()
	if c.PaceRate <= 0 {
		c.PaceRate = c.Flow.Sender.LineRate() / 1000
	}
	// Re-arm in place when a pending tick exists (the onRTO path calls
	// paceNext with the timer still armed); Quiesced() relies on the
	// early-return branches above canceling instead.
	gap := unit.TxTime(unit.MaxFrame, c.PaceRate)
	eng := c.Engine()
	c.paceTimer = sim.Rearm(c.paceTimer, eng, c.Flow.Sender.Dom(), eng.Now()+gap, connPaceNext, c, nil, 0)
}

// emitSegment sends the segment at sendPoint and advances it.
func (c *Conn) emitSegment() {
	seg := c.sendSegmentAt(c.sendPoint)
	c.sendPoint += int64(seg)
	if c.sendPoint > c.nextSeq {
		c.nextSeq = c.sendPoint
	}
}

// sendSegmentAt transmits one segment starting at seq (clipped to the
// flow size) without moving the send pointers; returns the payload sent.
func (c *Conn) sendSegmentAt(seq int64) unit.Bytes {
	seg := unit.MTUPayload
	if rem := c.totalBytes() - seq; int64(seg) > rem {
		seg = unit.Bytes(rem)
	}
	p := c.Flow.Sender.Pool().Get()
	p.Kind = packet.Data
	p.Flow = c.Flow.ID
	p.Src = c.Flow.Sender.ID()
	p.Dst = c.Flow.Receiver.ID()
	p.Seq = seq
	p.Payload = seg
	p.Wire = seg + (unit.MaxFrame - unit.MTUPayload)
	if p.Wire < unit.MinFrame {
		p.Wire = unit.MinFrame
	}
	p.ECNCapable = c.ECN
	if seq < c.nextSeq {
		c.Retransmits++
	}
	c.SentSegments++
	eng := c.Engine()
	at := eng.Now() + c.rng.Range(0, txJitter)
	if at <= c.lastTx {
		at = c.lastTx + 1
	}
	c.lastTx = at
	eng.At2D(c.Flow.Sender.Dom(), at, connSend, c, p, 0)
	return seg
}

// ---- receiver side ----

func (c *Conn) onDataPacket(p *packet.Packet) {
	now := c.Flow.Receiver.Engine().Now()
	delay := now - p.SentAt
	ce := p.CE
	rcpStamp := p.RCPRate
	seq, n := p.Seq, p.Payload
	c.Flow.Receiver.Pool().Put(p)

	before := c.expected
	switch {
	case seq == c.expected:
		c.expected += int64(n)
		// Drain contiguous out-of-order segments.
		for {
			l, ok := c.ooo[c.expected]
			if !ok {
				break
			}
			delete(c.ooo, c.expected)
			c.expected += int64(l)
		}
	case seq > c.expected:
		c.ooo[seq] = n
	default:
		// Duplicate of already-delivered data; ack again.
	}
	if c.expected > before {
		c.Flow.deliver(now, unit.Bytes(c.expected-before))
	}

	ack := c.Flow.Receiver.Pool().Get()
	ack.Kind = packet.Ack
	ack.Flow = c.Flow.ID
	ack.Src = c.Flow.Receiver.ID()
	ack.Dst = c.Flow.Sender.ID()
	ack.Ack = c.expected
	ack.Wire = unit.MinFrame
	ack.ECNEcho = ce
	ack.Delay = delay
	ack.RCPRate = rcpStamp
	c.Flow.Receiver.Send(ack)
}

// ---- sender side ----

func (c *Conn) onAckPacket(p *packet.Packet) {
	if c.stopped {
		c.Flow.Sender.Pool().Put(p)
		return
	}
	ackNo := p.Ack
	c.AckedPkts++
	if p.ECNEcho {
		c.MarkedAcks++
	}

	if ackNo > c.ackSeq {
		acked := unit.Bytes(ackNo - c.ackSeq)
		c.ackSeq = ackNo
		if c.sendPoint < ackNo {
			c.sendPoint = ackNo
		}
		c.dupAcks = 0
		if c.inRecovery {
			if ackNo >= c.recoveryEnd {
				c.inRecovery = false
			} else {
				// NewReno partial ack: the next hole is at ackNo.
				c.sendSegmentAt(ackNo)
			}
		}
		// RTT sample: one-way data delay + one-way ack delay measured as
		// now − data send time is unavailable here, so approximate with
		// twice the echoed one-way delay, which is exact for symmetric
		// uncongested reverse paths and close enough for CC purposes.
		sample := 2 * p.Delay
		c.updateRTT(sample)
		c.CC.OnAck(c, acked, p, sample)
		c.armRTO()
	} else {
		c.dupAcks++
		if c.dupAcks == dupAckThreshold && !c.inRecovery {
			c.inRecovery = true
			c.recoveryEnd = c.nextSeq
			// Retransmit only the missing segment (NewReno); the
			// receiver's out-of-order buffer preserves the rest.
			c.sendSegmentAt(c.ackSeq)
			c.CC.OnFastRetransmit(c)
		}
	}
	c.Flow.Sender.Pool().Put(p)

	if c.allAcked() {
		c.rtoTimer.Cancel()
		return
	}
	if !c.Paced {
		c.pump()
	} else if !c.paceTimer.Pending() {
		c.paceNext()
	}
}

func (c *Conn) allAcked() bool {
	return c.Flow.Size > 0 && c.ackSeq >= int64(c.Flow.Size)
}

func (c *Conn) updateRTT(s sim.Duration) {
	if s <= 0 {
		return
	}
	if c.SRTT == 0 {
		c.SRTT = s
		c.RTTVar = s / 2
		return
	}
	diff := c.SRTT - s
	if diff < 0 {
		diff = -diff
	}
	c.RTTVar = (3*c.RTTVar + diff) / 4
	c.SRTT = (7*c.SRTT + s) / 8
}

func (c *Conn) rto() sim.Duration {
	r := c.SRTT + 4*c.RTTVar
	if r < c.minRTO {
		r = c.minRTO
	}
	if r > maxRTO {
		r = maxRTO
	}
	return r
}

// armRTO re-arms the retransmission timer for every ACK that leaves
// data outstanding. Rescheduling in place (sim.Rearm) instead of the
// old cancel+schedule pair matters here more than anywhere else: with
// MinRTO-scale deadlines, every canceled RTO struct used to sit in the
// event queue for up to ~10ms before its lazy pop, so a busy flow kept
// one dead event per unacked window in flight.
func (c *Conn) armRTO() {
	eng := c.Engine()
	c.rtoTimer = sim.Rearm(c.rtoTimer, eng, c.Flow.Sender.Dom(), eng.Now()+c.rto(), connOnRTO, c, nil, 0)
}

func (c *Conn) onRTO() {
	if c.stopped || c.allAcked() {
		return
	}
	if !c.senderActive {
		return
	}
	c.Timeouts++
	c.dupAcks = 0
	c.inRecovery = false
	c.sendPoint = c.ackSeq
	c.CC.OnTimeout(c)
	c.armRTO()
	if c.Paced {
		c.paceNext()
	} else {
		c.pump()
	}
}
