// Package transport provides flow bookkeeping shared by every congestion
// control in this repository, plus a reliable byte-stream connection
// engine (sequence/ack, out-of-order buffering, fast retransmit, RTO)
// with pluggable congestion control used by the window- and rate-based
// baselines. ExpressPass itself lives in internal/core and only uses the
// Flow type from here.
package transport

import (
	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Flow is one sender→receiver transfer and its measured outcome.
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
	BytesDelivered unit.Bytes // payload bytes accepted in-order at receiver

	// OnFinish, if set, runs once when the last byte is delivered.
	OnFinish func(f *Flow)

	lastSampledBytes unit.Bytes
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

// deliver credits n newly-accepted payload bytes and fires completion.
func (f *Flow) deliver(now sim.Time, n unit.Bytes) {
	f.BytesDelivered += n
	if f.Size > 0 && !f.Finished && f.BytesDelivered >= f.Size {
		f.Finished = true
		f.FinishTime = now
		if f.OnFinish != nil {
			f.OnFinish(f)
		}
	}
}

// Deliver is the accounting entry point for transports that manage their
// own reliability (ExpressPass): it credits n in-order payload bytes.
func (f *Flow) Deliver(now sim.Time, n unit.Bytes) { f.deliver(now, n) }

// TakeDeliveredDelta returns bytes delivered since the previous call,
// for periodic throughput sampling.
func (f *Flow) TakeDeliveredDelta() unit.Bytes {
	d := f.BytesDelivered - f.lastSampledBytes
	f.lastSampledBytes = f.BytesDelivered
	return d
}
