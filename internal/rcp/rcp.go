// Package rcp implements the RCP sender (Dukkipati, "Rate Control
// Protocol"): switches compute one explicit fair rate per link
// (internal/netem's rcpMeter), stamp the path minimum into data packets,
// receivers echo it on ACKs, and the sender simply paces at the echoed
// rate. New flows start at the current fair rate, giving RCP its
// signature instant ramp-up.
package rcp

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// CC is the RCP policy for transport.Conn, a paced sender.
type CC struct{}

// New returns an RCP sender policy.
func New() *CC { return &CC{} }

// Init implements transport.CC. RCP senders learn the router rate
// during the handshake: a low-rate first RTT (1% of line rate), then the
// first echoed rate.
func (r *CC) Init(c *transport.Conn) {
	c.Paced = true
	c.PaceRate = c.Flow.Sender.LineRate() / 100
}

// OnAck implements transport.CC: adopt the echoed explicit rate.
func (r *CC) OnAck(c *transport.Conn, _ unit.Bytes, ack *packet.Packet, _ sim.Duration) {
	if ack.RCPRate > 0 {
		c.PaceRate = ack.RCPRate
	}
}

// OnFastRetransmit implements transport.CC (rate is router-controlled).
func (r *CC) OnFastRetransmit(*transport.Conn) {}

// OnTimeout implements transport.CC: RCP leaves rate control entirely to
// the routers — the sender just retransmits at the explicit rate.
func (r *CC) OnTimeout(*transport.Conn) {}
