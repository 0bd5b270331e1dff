// Package invariant turns the paper's core guarantees into machine-
// checked runtime properties. A Checker taps a network's trace stream
// (the same obs events the instrumentation layer emits) and validates,
// as the simulation runs:
//
//   - credit conservation (§3.1): every ExpressPass data packet spends
//     exactly one outstanding credit at its sender — no data without a
//     credit, no double-spend, no packet larger than the MTU a credit
//     authorizes;
//   - token-bucket conformance (§3.1 maximum-bandwidth metering): the
//     credit throughput of every port with a credit class never exceeds
//     its configured credit ratio over any window, up to a spec-derived
//     burst tolerance — independently re-metered by a shadow bucket, so
//     a broken or over-provisioned limiter is caught even though the
//     port's own bucket would happily admit the excess;
//   - queue/delay bound (§3.1 "delay-bounded"): data-queue occupancy on
//     ports carrying only credited traffic stays under the bound implied
//     by credit buffer carving, and per-packet queuing delay stays under
//     the derived cap;
//   - packet/pool conservation (the poolbalance property): at drain,
//     every allocated packet has been delivered, dropped, or recycled —
//     checked via CheckDrained once the engine is empty.
//
// The checker follows the PR 1 zero-overhead contract: nothing in the
// hot paths knows it exists. Attach wraps a network's tracer with a tee
// — events are checked, then forwarded to whatever tracer (if any) was
// installed before — so byte-identical trace output is preserved and
// disabled checking costs exactly the one nil check the tracer already
// pays. A Set attaches a checker to every network one run builds (the
// run's engines carry Set.Attach as their netem.Wiring.Check), which is
// how the experiment determinism gate and the xpsim -invariants flag arm
// a whole run.
//
// Armed, the tee costs what the checker uses of it. The spliced tracer
// is filtered to the eleven event types the checks read (subscription,
// in checker.go) — widened by the displaced tracer's own filter, or to
// everything when a flight recorder is armed — so emission sites build
// nothing else; per-port state is found by the port number every port
// event carries (obs.Event.Port, netem.Port.Number) and the credit
// ledger by flow ID, both in plain slices: no name is hashed or compared
// per event. There is deliberately no second, direct path from a port to
// the checker: the tee is what -trace and -flight hang off, and it
// delivers events to the checker in emission order whichever mode the
// run is in.
// Stats counts what a verdict rests on.
package invariant

import (
	"fmt"
	"io"
	"sync"

	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Violation is one detected invariant breach.
type Violation struct {
	Time      sim.Time
	Invariant string // "credit-conservation", "token-bucket", "queue-bound", "delay-bound", "pool-conservation"
	Scope     string // emitting component (port or host name)
	Flow      int64  // offending flow, 0 when not flow-specific
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v [%s] %s flow=%d: %s",
		v.Time, v.Invariant, v.Scope, v.Flow, v.Detail)
}

// Options configures a Checker. The zero value enables every check with
// spec-derived defaults. Credit conservation and token-bucket
// conformance are always on.
type Options struct {
	// QueueBound caps data-queue occupancy (bytes) on ports that carry
	// only credited traffic. Zero derives a per-port default from the
	// credit buffer carving (see queueBound).
	QueueBound unit.Bytes

	// DelayCap caps per-packet queuing delay on those same ports. Zero
	// derives the time to drain QueueBound at the port's data share.
	DelayCap sim.Duration

	// Disable flags for the positional checkers (enabled by default).
	NoQueueBound bool
	NoDelayBound bool

	// OnViolation, when set, receives each violation as it is reported.
	// A checker without one keeps its findings and returns them all from
	// Finish.
	OnViolation func(Violation)

	// FlightOut, when set, arms a flight recorder: the checker keeps the
	// last FlightEvents trace events in a fixed-size ring and dumps them
	// here (as JSONL, preceded by '#' context lines) the first time it
	// reports a violation — the lead-up to the failure without the cost
	// of a full on-disk trace. One dump per checker; the checkers of one
	// Set, which concurrent trials share, serialize their dumps on it.
	FlightOut io.Writer

	// FlightEvents is the flight-recorder ring capacity (default 4096).
	FlightEvents int
}

const defaultFlightEvents = 4096

// DefaultBurstTolerance is the byte allowance of the shadow credit
// meter: how far a port's credit transmissions may run ahead of
// ratio × rate × elapsed. It is the §3.1 bucket size, two maximum-size
// (92 B) credit packets, matching netem's default credit burst —
// deliberately NOT the port's configured burst: the checker validates
// the spec bound, so a port whose limiter was misconfigured with a huge
// burst is caught.
const DefaultBurstTolerance = 2 * unit.MaxCredit

// ---- one run's checking ----

// keepCap bounds the violations a Set retains; Count keeps the true total.
const keepCap = 1024

// Set is one run's invariant checking. Attach puts a checker with the
// set's options on a network — a run hands it to every network it builds
// (netem.Wiring.Check), which is how the determinism gate and xpsim
// -invariants arm a whole run — and Finish finishes every checker
// attached since the previous Finish. The violations land in the set,
// unless its options route them elsewhere (OnViolation). Attach
// and the readers are safe from concurrent trials.
type Set struct {
	opt Options

	mu       sync.Mutex
	checkers []*Checker
	stats    Stats
	viols    []Violation // the first keepCap
	count    uint64
	flightMu sync.Mutex // serializes the checkers' dumps onto opt.FlightOut
}

// NewSet returns an empty set whose checkers use opt.
func NewSet(opt Options) *Set {
	s := &Set{opt: opt}
	if opt.OnViolation == nil {
		s.opt.OnViolation = s.record
	}
	return s
}

func (s *Set) record(v Violation) {
	s.mu.Lock()
	s.count++
	if len(s.viols) < keepCap {
		s.viols = append(s.viols, v)
	}
	s.mu.Unlock()
}

// Attach attaches a checker with the set's options to net.
func (s *Set) Attach(net *netem.Network) {
	c := Attach(net, s.opt)
	c.flightMu = &s.flightMu
	s.mu.Lock()
	s.checkers = append(s.checkers, c)
	s.mu.Unlock()
}

// Finish finishes every checker attached since the previous Finish,
// flushing their positional findings into the set and releasing their
// networks. Call it only when none of the set's simulations is running.
func (s *Set) Finish() {
	s.mu.Lock()
	cs := s.checkers
	s.checkers = nil
	s.mu.Unlock()
	var sum Stats
	for _, c := range cs {
		c.Finish()
		sum.add(c.Stats())
	}
	s.mu.Lock()
	s.stats.add(sum)
	s.mu.Unlock()
}

// Stats returns what the checkers Finish has finished looked at, summed.
func (s *Set) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Violations returns the violations recorded so far (at most keepCap;
// Count reports the true total).
func (s *Set) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Violation(nil), s.viols...)
}

// Count returns the total number of violations recorded, including any
// beyond the retention cap.
func (s *Set) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Stats says what a verdict rests on: how much one finished checker —
// or, from Set.Stats, every checker a set has finished — actually
// looked at. "No violations" from a run that checked nothing, exempted
// every port, voided its positional findings or lost its place on the
// trace path is a weaker statement than the same words from a run that
// did none of those, and only these numbers tell the two apart.
type Stats struct {
	Events    uint64 // events that reached a check
	Ports     int    // ports a tracker was built for
	Exempt    int    // of those, proven to carry uncredited traffic: queue/delay checks off
	Networks  int    // checkers finished
	Voided    int    // of those, positional findings discarded (voiding fault or mid-run route rebuild)
	Displaced int    // of those, no longer the network's tracer at Finish: a later SetTracer (or Attach) took their place
}

func (s *Stats) add(o Stats) {
	s.Events += o.Events
	s.Ports += o.Ports
	s.Exempt += o.Exempt
	s.Networks += o.Networks
	s.Voided += o.Voided
	s.Displaced += o.Displaced
}

// String renders the one-line summary xpsim prints above its verdict.
func (s Stats) String() string {
	return fmt.Sprintf("%d events checked on %d ports (%d exempt) in %d networks (%d voided)",
		s.Events, s.Ports, s.Exempt, s.Networks, s.Voided)
}

// CheckDrained validates packet/pool conservation after a simulation has
// drained: every port queue must be empty and the network's packet pool
// must hold no packet (allocated == delivered + dropped: nothing
// leaked). The pool belongs to net alone, so the count is exact whatever
// else the process runs; a double free panics at the Put instead. The
// findings are returned, not recorded anywhere.
func CheckDrained(net *netem.Network) []Violation {
	var out []Violation
	now := net.Eng.Now()
	for _, p := range net.AllPorts() {
		st := p.Stats()
		if n := st.DataQueueBytes; n != 0 {
			out = append(out, Violation{Time: now, Invariant: "pool-conservation",
				Scope: p.Name(), Detail: fmt.Sprintf("data queue holds %v after drain", n)})
		}
		if n := st.CreditQueueLen; n != 0 {
			out = append(out, Violation{Time: now, Invariant: "pool-conservation",
				Scope: p.Name(), Detail: fmt.Sprintf("credit queue holds %d packets after drain", n)})
		}
	}
	if live := net.Pool().Live(); live != 0 {
		out = append(out, Violation{Time: now, Invariant: "pool-conservation",
			Detail: fmt.Sprintf("network holds %d packets at drain (leak)", live)})
	}
	return out
}
