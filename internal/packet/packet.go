// Package packet defines the wire units the simulator forwards: data
// segments, ExpressPass credits, ACKs, and the small control messages the
// credit state machines exchange (CREDIT_REQUEST, CREDIT_STOP, SYN, FIN).
package packet

import (
	"fmt"

	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// FlowID uniquely identifies a flow for the lifetime of a simulation.
type FlowID int64

// NodeID identifies a host or switch.
type NodeID int32

// Kind classifies a packet for queueing: switches place Credit packets in
// the rate-limited credit class and everything else in the data class.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Credit
	Ack
	Ctrl
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Credit:
		return "credit"
	case Ack:
		return "ack"
	case Ctrl:
		return "ctrl"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// CtrlType is the control-message subtype carried by Ctrl packets (and
// piggybacked on SYNs per §3.1 of the paper).
type CtrlType uint8

// Control subtypes.
const (
	CtrlNone CtrlType = iota
	CtrlSyn
	CtrlSynAck
	CtrlCreditRequest
	CtrlCreditStop
	CtrlFin
	// CtrlNack: the receiver saw CREDIT_STOP before the flow's bytes
	// all arrived — credited data was lost. Ack carries the delivered
	// byte count so the sender can reopen exactly the shortfall.
	CtrlNack
)

func (c CtrlType) String() string {
	switch c {
	case CtrlNone:
		return "none"
	case CtrlSyn:
		return "SYN"
	case CtrlSynAck:
		return "SYN+ACK"
	case CtrlCreditRequest:
		return "CREDIT_REQUEST"
	case CtrlCreditStop:
		return "CREDIT_STOP"
	case CtrlFin:
		return "FIN"
	case CtrlNack:
		return "NACK"
	}
	return fmt.Sprintf("ctrl(%d)", uint8(c))
}

// Packet is a simulated frame. Fields cover the superset of headers the
// implemented transports need; unused fields stay zero. Wire is the size
// on the wire including preamble and inter-packet gap, which is what
// serialization time and queue occupancy are computed from.
type Packet struct {
	Kind Kind
	Ctrl CtrlType
	Flow FlowID
	Src  NodeID
	Dst  NodeID

	// Class selects the credit traffic class at switch ports configured
	// with multiple credit classes (§7 "Multiple traffic classes").
	// Zero is the default class.
	Class uint8

	Wire    unit.Bytes // bytes on the wire (incl. 20 B preamble+IPG)
	Payload unit.Bytes // application bytes carried (data packets)

	Seq int64 // data: first payload byte offset; credit: credit sequence
	Ack int64 // ACK: cumulative ack (next expected byte)

	// CreditSeq is the credit sequence echoed back on data packets so the
	// receiver can detect credit drops from sequence gaps (§3.2).
	CreditSeq int64

	ECNCapable bool // transport understands ECN
	CE         bool // congestion experienced, set by switches
	ECNEcho    bool // ACK: receiver echoing CE

	// Corrupt marks a frame damaged in flight by an injected corruption
	// impairment. Switches forward it unexamined (cut-through fabrics do
	// not verify CRC); the destination host's NIC fails the CRC check and
	// drops it at delivery (see netem.Host.Deliver).
	Corrupt bool

	free bool // on a Pool's free list; in the flags' padding (120 B total)

	// RCPRate is the minimum of the per-link explicit rates along the
	// path, stamped by switches and echoed to the sender (RCP baseline).
	RCPRate unit.Rate

	// Delay is the one-way latency the receiver measured for the data
	// packet this ACK acknowledges, echoed back so delay-based senders
	// (DX) can estimate queuing delay.
	Delay sim.Duration

	SentAt sim.Time // transmit timestamp at the source NIC
	Hops   int      // links traversed, for diagnostics

	// PFCIngress is simulator-internal PFC ingress-buffer attribution:
	// (global port index + 1) of the link this packet is currently
	// accounted against, 0 when none.
	PFCIngress int32
}

// Pool recycles the packets of one network: a LIFO free list and exact
// Get and Put counts. The zero value is ready to use. It is not safe for
// concurrent use; one goroutine drives a network for its whole life.
type Pool struct {
	free       []*Packet
	gets, puts int64
}

// Get returns a zeroed packet, the most recently freed one if any.
func (pl *Pool) Get() *Packet {
	pl.gets++
	if k := len(pl.free) - 1; k >= 0 {
		p := pl.free[k]
		pl.free = pl.free[:k]
		*p = Packet{}
		return p
	}
	return new(Packet)
}

// Put recycles p. The caller must not touch p afterwards. A second Put
// of a free packet panics: it would hand one packet to two owners.
func (pl *Pool) Put(p *Packet) {
	if p.free {
		panic("packet: double free of " + p.String())
	}
	p.free = true
	pl.puts++
	pl.free = append(pl.free, p)
}

// Live returns Get−Put: the packets the network holds. After a drained
// run it is zero — every packet built was recycled exactly once.
func (pl *Pool) Live() int64 { return pl.gets - pl.puts }

// IsCredit reports whether p rides in the credit queue class.
func (p *Packet) IsCredit() bool { return p.Kind == Credit }

func (p *Packet) String() string {
	switch p.Kind {
	case Credit:
		return fmt.Sprintf("credit{flow=%d seq=%d %v}", p.Flow, p.Seq, p.Wire)
	case Ctrl:
		return fmt.Sprintf("ctrl{%v flow=%d}", p.Ctrl, p.Flow)
	case Ack:
		return fmt.Sprintf("ack{flow=%d ack=%d echo=%t}", p.Flow, p.Ack, p.ECNEcho)
	default:
		return fmt.Sprintf("data{flow=%d seq=%d %v ce=%t}", p.Flow, p.Seq, p.Wire, p.CE)
	}
}
