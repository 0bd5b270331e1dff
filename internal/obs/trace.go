// Package obs is the instrumentation layer of the simulator: a typed
// event tracer, a metrics registry of gauges and histograms, and
// runtime profiling hooks, all designed to cost nothing when disabled.
//
// The contract with the hot paths (sim.Engine, netem.Port, the core
// credit state machines) is deliberately primitive: an instrumented
// component holds a *Tracer pointer that is nil when tracing is off and
// guards every emission with a single nil check — one predictable,
// never-taken branch on the disabled path. No interface dispatch, no
// atomic loads, no allocation happens unless a trace is actually being
// recorded. The same holds for metrics: gauges are pull-based closures
// that are only evaluated when a sampler ticks, and nothing is sampled
// unless the run has a Runtime with metrics output.
//
// Wiring is equally simple: either attach a Tracer to one network with
// netem.Network.SetTracer (tests, library users), or give a run a
// Runtime (experiments.Params.Obs; the CLIs do this). Every network the
// run builds is built in a sweep trial and records into that trial's
// Trial scope, which it picks up through its engine (netem.Wiring); the
// Trial streams or buffers into the Runtime, which is no scope itself.
package obs

import (
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// EventType classifies a trace event. The set mirrors the observations
// the paper's evaluation is built on: per-link credit-throttle drops
// (Fig 6, §3.1), queue occupancy over time (Figs 1/13, Table 3),
// per-flow credit and data rates (Figs 2/13/16), and the feedback-loop
// w/rate trajectory (Algorithm 1, Fig 18).
type EventType uint8

// Event types. The Val/Aux/Aux2 columns of Event carry the per-type
// payload documented next to each constant.
const (
	// EvCreditSent: receiver emitted one credit.
	// Val = current credit rate (Gbps), Aux = w.
	EvCreditSent EventType = iota
	// EvCreditRecv: a credit reached the sender.
	EvCreditRecv
	// EvCreditWaste: a credit arrived after the sender ran out of data
	// (the waste metric of Fig 20).
	EvCreditWaste
	// EvCreditDrop: the credit-class queue at a port dropped a credit
	// (the rate limiter doing its job, §3.1). Flow/Seq identify the
	// arriving credit (the displaced victim under random-victim
	// replacement is not identified). Val = credit queue length after.
	EvCreditDrop
	// EvDataEnq: a packet entered a port's data queue.
	// Val = data queue bytes after the enqueue, Aux = the packet's credit
	// sequence (0 for uncredited traffic), Aux2 = the packet.Kind numeric
	// (0 data, 2 ack, 3 ctrl). Aux/Aux2 let the queue-bound invariant
	// checker tell credited ExpressPass traffic from baseline transports.
	EvDataEnq
	// EvDataDeq: a data packet left a port's data queue for the wire.
	// Val = data queue bytes after the dequeue.
	EvDataDeq
	// EvDataDrop: the data queue drop-tailed a packet.
	// Val = data queue bytes at the drop.
	EvDataDrop
	// EvQueueDepth: data-queue occupancy changed. Val = bytes, Aux = pkts.
	EvQueueDepth
	// EvCreditQDepth: credit-queue occupancy changed. Val = packets.
	EvCreditQDepth
	// EvFeedback: the per-flow controller ran Algorithm 1.
	// Val = new rate (Gbps), Aux = w, Aux2 = measured credit loss.
	EvFeedback
	// EvPFCPause / EvPFCResume: an ingress crossed XOff / drained below
	// XOn and signalled the upstream transmitter. Val = ingress bytes.
	EvPFCPause
	EvPFCResume
	// EvFaultStart / EvFaultEnd: a scheduled fault (link flap, seeded
	// loss window, host stall) began / cleared. Scope is
	// "<kind>:<target>" (e.g. "flap:swL->swR", "stall:h0"); Val/Aux carry
	// the fault parameters (flap: Val = planned duration in ms; loss:
	// Val = credit-class rate, Aux = data-class rate; stall: Val =
	// planned duration in ms).
	EvFaultStart
	EvFaultEnd
	// EvFaultDrop: a packet was destroyed by an active fault — admitted
	// to a downed link, lost on the wire mid-flap, flushed from a downed
	// port's queues, or hit by seeded loss. Scope is the port name;
	// Flow/Seq/Bytes identify the victim.
	EvFaultDrop
	// EvDataSend: an ExpressPass sender emitted one data packet against a
	// received credit. Scope is the sender host name; Seq is the consumed
	// credit sequence, Bytes the payload. Paired with EvCreditRecv, this
	// is the spend side of the credit-conservation ledger checked by
	// internal/invariant.
	EvDataSend
	// EvCreditTx: a port's transmitter put a credit on the wire after the
	// token bucket admitted it. Scope is the port name; Flow/Seq identify
	// the credit and Bytes its randomized wire size. The token-bucket
	// conformance checker meters these against the configured credit
	// ratio (§3.1 maximum-bandwidth metering).
	EvCreditTx
	// EvRouteBuild: the network recomputed its routing tables while the
	// simulation clock was already running (failover, repair, link-state
	// flap). Credits granted under the old routing release data onto the
	// new paths, so §3.1's per-port bounds — derived for stable symmetric
	// routing — do not constrain the transient; the invariant checker
	// voids its positional findings when it sees one.
	EvRouteBuild
	// EvFlowRetire: a completed flow was retired and its ID returned to
	// the network's free pool for reuse by a later arrival. Flow is the
	// freed ID. Consumers keying state by flow ID (the invariant
	// checker's credit-conservation ledger) must clear that ID's state,
	// since subsequent events carrying it belong to a different flow.
	EvFlowRetire
	// EvFaultDup: an injected duplication impairment cloned a packet at a
	// port's egress — two copies of the same frame are now in flight.
	// Scope is the port name; Flow/Seq/Bytes identify the duplicated
	// packet. Endpoint dedup windows must make the clone a no-op for
	// credit conservation and delivered-byte accounting.
	EvFaultDup
	// EvCorruptDrop: a frame marked corrupt by an injected impairment
	// reached its destination host and failed the NIC CRC check; it is
	// dropped at delivery, before demux. Scope is the host name;
	// Flow/Seq/Bytes identify the victim.
	EvCorruptDrop

	numEventTypes
)

// NumEventTypes is the number of defined event types: valid types are
// [0, NumEventTypes). A subscriber that builds its filter from a table
// (the invariant checker) sizes and walks the table with it.
const NumEventTypes = numEventTypes

// Tracer.mask holds one filter bit per type in a uint64; a 65th type
// would alias bit 0, so it fails to compile here instead.
var _ [64 - numEventTypes]struct{}

var eventNames = [numEventTypes]string{
	EvCreditSent:   "credit_sent",
	EvCreditRecv:   "credit_recv",
	EvCreditWaste:  "credit_waste",
	EvCreditDrop:   "credit_drop",
	EvDataEnq:      "data_enq",
	EvDataDeq:      "data_deq",
	EvDataDrop:     "data_drop",
	EvQueueDepth:   "qdepth",
	EvCreditQDepth: "credit_qdepth",
	EvFeedback:     "feedback",
	EvPFCPause:     "pfc_pause",
	EvPFCResume:    "pfc_resume",
	EvFaultStart:   "fault_start",
	EvFaultEnd:     "fault_end",
	EvFaultDrop:    "fault_drop",
	EvDataSend:     "data_send",
	EvCreditTx:     "credit_tx",
	EvRouteBuild:   "route_build",
	EvFlowRetire:   "flow_retire",
	EvFaultDup:     "fault_dup",
	EvCorruptDrop:  "corrupt_drop",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// EventTypeByName returns the type whose String() is name, or ok=false.
func EventTypeByName(name string) (EventType, bool) {
	for i, n := range eventNames {
		if n == name {
			return EventType(i), true
		}
	}
	return 0, false
}

// Event is one trace record. It is a flat value struct so emitting one
// never allocates; sinks receive it by value and encode it as they
// please. Scope names the emitting component (a port "a->b", a host
// name for endpoint events). Flow/Seq/Bytes are zero when the type has
// no use for them; Val/Aux/Aux2 carry the per-type payload documented
// on the EventType constants.
//
// Port names the same source by number for in-process consumers: a
// port's netem.Port.Number (1 + its position in Network.AllPorts) on
// every event a port emits or a fault aims at one — for "stall:<host>"
// the host's NIC — and 0 on everything else. The invariant checker
// indexes its per-port state with it instead of hashing Scope. It sits
// in the padding between Type and Scope, so the struct is still 80 bytes
// (Trial charges unsafe.Sizeof(Event) per buffered event), and it is not
// part of the trace schema: no encoder prints it.
type Event struct {
	T     sim.Time
	Type  EventType
	Port  int32
	Scope string
	Flow  int64
	Seq   int64
	Bytes unit.Bytes
	Val   float64
	Aux   float64
	Aux2  float64
}

// Sink receives trace events. Implementations are single-goroutine like
// the simulator itself and need no locking.
type Sink interface {
	Record(ev Event)
	Close() error
}

// Tracer filters events by type and forwards them to a sink. The
// zero-overhead contract lives at the call sites: code holds a *Tracer
// that is nil when tracing is disabled, so the only cost on the
// disabled path is the nil check itself.
type Tracer struct {
	sink Sink
	mask uint64
	n    uint64
}

// NewTracer returns a tracer recording the given event types to sink;
// with no types listed, every type is recorded.
func NewTracer(sink Sink, types ...EventType) *Tracer {
	t := &Tracer{sink: sink}
	if len(types) == 0 {
		t.mask = ^uint64(0)
	} else {
		for _, ty := range types {
			t.mask |= 1 << ty
		}
	}
	return t
}

// Enabled reports whether events of type ty pass the filter.
func (t *Tracer) Enabled(ty EventType) bool { return t.mask&(1<<ty) != 0 }

// Emit records ev if its type passes the filter.
func (t *Tracer) Emit(ev Event) {
	if t.mask&(1<<ev.Type) == 0 {
		return
	}
	t.n++
	t.sink.Record(ev)
}

// Count returns the number of events recorded (post-filter).
func (t *Tracer) Count() uint64 { return t.n }

// Close flushes and closes the sink.
func (t *Tracer) Close() error { return t.sink.Close() }
