// Package transport provides flow bookkeeping shared by every congestion
// control in this repository, plus a reliable byte-stream connection
// engine (sequence/ack, out-of-order buffering, fast retransmit, RTO)
// with pluggable congestion control used by the window- and rate-based
// baselines. ExpressPass itself lives in internal/core and only uses the
// Flow type from here. Both transports account a flow the same way,
// through Flow.Deliver: a payload byte counts once, when its first copy
// reaches the receiver, so a goodput window reads the same quantity for
// every protocol.
package transport

import (
	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Flow is one sender→receiver transfer and its measured outcome.
// BytesDelivered only grows; a goodput window is the difference of two
// readings of it.
type Flow struct {
	ID       packet.FlowID
	Sender   *netem.Host
	Receiver *netem.Host

	// Size is the application bytes to transfer; 0 means long-running
	// (the flow sends until stopped).
	Size unit.Bytes

	// StartAt is when the flow arrives (sender learns it has data).
	StartAt sim.Time

	// Outcome, filled in as the simulation runs.
	Started        bool
	Finished       bool
	FinishTime     sim.Time
	BytesDelivered unit.Bytes // payload bytes arrived at the receiver, each counted once

	// OnFinish, if set, runs once when the last byte is delivered.
	OnFinish func(f *Flow)
}

// NewFlow allocates a flow with a fresh ID from the network.
func NewFlow(net *netem.Network, s, r *netem.Host, size unit.Bytes, at sim.Time) *Flow {
	return &Flow{ID: net.NextFlowID(), Sender: s, Receiver: r, Size: size, StartAt: at}
}

// FCT returns the flow completion time (Forever if unfinished).
func (f *Flow) FCT() sim.Duration {
	if !f.Finished {
		return sim.Forever
	}
	return f.FinishTime - f.StartAt
}

// Deliver is every transport's accounting entry point: it credits n
// payload bytes whose first copy just arrived at the receiver, in order
// or not, and fires completion once all Size bytes have.
func (f *Flow) Deliver(now sim.Time, n unit.Bytes) {
	f.BytesDelivered += n
	if f.Size > 0 && !f.Finished && f.BytesDelivered >= f.Size {
		f.Finished = true
		f.FinishTime = now
		if f.OnFinish != nil {
			f.OnFinish(f)
		}
	}
}
