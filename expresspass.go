// Package expresspass is a from-scratch Go implementation of
// ExpressPass — "Credit-Scheduled Delay-Bounded Congestion Control for
// Datacenters" (Cho, Jang, Han; SIGCOMM 2017) — together with the
// packet-level network simulator, baseline congestion controls (DCTCP,
// RCP, DX, HULL, CUBIC, an ideal-rate oracle), workload generators, and
// the benchmark harness that regenerates every table and figure of the
// paper's evaluation.
//
// The root package is a thin facade: it re-exports the building blocks a
// downstream user needs to script their own simulations and exposes the
// experiment registry used by cmd/xpsim and the benchmarks.
//
// # Examples
//
// The package's Examples (example_test.go) are its programs, each with
// the output `go test -run Example -v .` checks: ExampleDial builds a
// topology, dials one flow, runs the engine and reads the outcome;
// ExampleCreditClassConfig is §7's QoS through credit classes;
// ExampleFeedback runs Algorithm 1 alone; ExampleRunExperiment reaches
// the experiment registry. DESIGN.md is the system map.
package expresspass

import (
	"io"

	"expresspass/internal/core"
	"expresspass/internal/experiments"
	"expresspass/internal/faults"
	"expresspass/internal/invariant"
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/scenario"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// Re-exported core types: simulation engine and clock.
type (
	// Engine is the deterministic discrete-event simulator.
	Engine = sim.Engine
	// Time is a simulation timestamp in picoseconds.
	Time = sim.Time
	// Duration is a span of simulated time in picoseconds.
	Duration = sim.Duration
	// Rate is a link or flow rate in bits per second.
	Rate = unit.Rate
	// Bytes is a size in bytes.
	Bytes = unit.Bytes

	// Network owns the hosts, switches, and links of a topology.
	Network = netem.Network
	// Host is an end system with a credit-capable NIC.
	Host = netem.Host
	// Switch forwards packets with symmetric-hash ECMP and per-port
	// credit rate limiting.
	Switch = netem.Switch
	// Node is anything a port can belong to: a switch or a host.
	Node = netem.Node
	// PortConfig configures one link direction.
	PortConfig = netem.PortConfig
	// HostDelayConfig models host credit-processing delay.
	HostDelayConfig = netem.HostDelayConfig
	// CreditClassConfig defines one credit QoS class at a port (§7
	// "Multiple traffic classes").
	CreditClassConfig = netem.CreditClassConfig

	// Flow is one transfer and its measured outcome.
	Flow = transport.Flow
	// Config tunes an ExpressPass flow (α, initial w, base RTT, …).
	Config = core.Config
	// Session is a dialed ExpressPass flow (sender + receiver side).
	Session = core.Session
	// Feedback is the standalone Algorithm 1 rate controller.
	Feedback = core.Feedback

	// Tracer records typed simulation events (credit drops, queue
	// depth, feedback updates) to a sink; attach with Network.SetTracer
	// or to a whole run via an ObsRuntime.
	Tracer = obs.Tracer
	// TraceEventType classifies a trace event.
	TraceEventType = obs.EventType
	// ObsRuntime is one run's instrumentation (tracing + metrics CSV),
	// which every network the run builds picks up at construction,
	// through the scope of the sweep trial that built it.
	ObsRuntime = obs.Runtime
	// ObsConfig configures an ObsRuntime.
	ObsConfig = obs.Config
)

// Common units, re-exported for convenience.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second

	Mbps = unit.Mbps
	Gbps = unit.Gbps

	KB = unit.KB
	MB = unit.MB
)

// NewEngine returns a simulator seeded deterministically.
func NewEngine(seed uint64) *Engine { return sim.New(seed) }

// NewNetwork returns an empty network bound to eng.
func NewNetwork(eng *Engine) *Network { return netem.NewNetwork(eng) }

// NewFlow allocates a flow of size bytes from a to b starting at t.
func NewFlow(n *Network, a, b *Host, size Bytes, at Time) *Flow {
	return transport.NewFlow(n, a, b, size, at)
}

// Dial attaches ExpressPass endpoints to f and schedules its start.
func Dial(f *Flow, cfg Config) *Session { return core.Dial(f, cfg) }

// Link returns a PortConfig for a link of the given rate and propagation
// delay with a 250-MTU data buffer. Its credit queue is PortConfig's
// default: one class of 8 credits.
func Link(rate Rate, delay Duration) PortConfig {
	return PortConfig{Rate: rate, Delay: delay, DataCapacity: netem.SwitchBuffer}
}

// HardwareNIC returns the NIC-hardware host delay model (∆d≈1 µs).
func HardwareNIC() HostDelayConfig { return netem.HardwareNICDelay() }

// NewTracer returns a tracer recording the given event types to sink
// (no types = all). Build a sink with NewJSONLTraceSink.
func NewTracer(sink obs.Sink, types ...TraceEventType) *Tracer {
	return obs.NewTracer(sink, types...)
}

// NewJSONLTraceSink returns a sink encoding events as JSON lines to w.
func NewJSONLTraceSink(w io.Writer) obs.Sink { return obs.NewJSONLSink(w) }

// EventTypeByName resolves a trace event type from its wire name
// (e.g. "credit_drop"), as used by xpsim's -trace-types flag.
func EventTypeByName(name string) (TraceEventType, bool) {
	return obs.EventTypeByName(name)
}

// NewObsRuntime returns an instrumentation runtime for cfg. A run
// records into it when it is the run's ExperimentParams.Obs.
func NewObsRuntime(cfg ObsConfig) *ObsRuntime { return obs.NewRuntime(cfg) }

// Fault injection (see internal/faults): deterministic, event-scheduled
// link flaps, host credit stalls, and the seeded impairment suite —
// uniform and correlated loss (Gilbert-Elliott, 4-state Markov,
// correlated Bernoulli), duplication, corruption, bounded reordering,
// and delay/rate jitter — composable into recurring chaos schedules.
type (
	// FaultDirective is one fault: parsed from a -faults spec string, or
	// built as a literal and scheduled through a FaultPlan.
	FaultDirective = faults.Directive
	// FaultSchedule is one recurring chaos schedule (an every{} clause).
	FaultSchedule = faults.Schedule
	// FaultPlan is an ordered fault timeline (one-shot directives plus
	// recurring chaos schedules); Apply schedules it.
	FaultPlan = faults.Plan
	// FaultConfigError reports a malformed -faults spec, naming the
	// offending clause and its byte offset (retrieve with errors.As).
	FaultConfigError = faults.ConfigError
)

// ParseFaultSpec parses a fault timeline spec such as
//
//	flap@10ms+2ms; gemodel:credit:0.02:0.3@20ms+5ms;
//	every:20ms:count=3:roll{ stall@0ms+2ms }@30ms+80ms
//
// (xpsim's -faults flag grammar; see faults.ParseSpec for the full
// clause list). Malformed specs return a *FaultConfigError.
func ParseFaultSpec(spec string) (FaultPlan, error) { return faults.ParseSpec(spec) }

// Experiment identifies one reproduced table or figure.
type Experiment = experiments.Experiment

// ExperimentParams are one experiment run, whole: scale, seed and fault
// plan, and how it runs — Procs sweep workers (0 = GOMAXPROCS; output is
// byte-identical at any count; a run whose Obs traces or writes metrics
// uses one), the Obs runtime its networks record into and the
// Invariants set that checks them. Runs with different
// params may share a process.
type ExperimentParams = experiments.Params

// Experiments returns the registered paper reproductions, ordered.
func Experiments() []Experiment { return experiments.All() }

// ExperimentScaleError reports an ExperimentParams.Scale of NaN or ±Inf
// (retrieve with errors.As).
type ExperimentScaleError = experiments.ScaleError

// RunExperiment executes the experiment with the given ID, writing its
// table(s) to w. Scale 1.0 reproduces the paper-scale configuration;
// zero means the default 0.1, other finite values are clamped to
// (0, 1], and NaN or ±Inf return an *ExperimentScaleError.
func RunExperiment(id string, p ExperimentParams, w io.Writer) error {
	return experiments.Run(id, p, w)
}

// InvariantOptions configures the runtime invariant checkers (see
// internal/invariant). The zero value enables every check.
type InvariantOptions = invariant.Options

// InvariantViolation is one detected breach of a paper property.
type InvariantViolation = invariant.Violation

// InvariantSet checks every network of the runs it is given to as
// ExperimentParams.Invariants (xpsim's -invariants flag). After the run,
// Finish flushes the checkers' deferred findings; Stats, Violations and
// Count are the verdict.
type InvariantSet = invariant.Set

// NewInvariantSet returns an empty set whose checkers use opt.
func NewInvariantSet(opt InvariantOptions) *InvariantSet { return invariant.NewSet(opt) }

// InvariantStats says what a set's checkers looked at: events that
// reached a check, ports tracked and exempted, networks checked, and how
// many of those had their positional findings voided or their checker
// displaced. A clean verdict is only as strong as these numbers.
type InvariantStats = invariant.Stats

// ScenarioReport summarizes one generated fuzz run.
type ScenarioReport = scenario.Report

// RunScenario generates and runs the fuzz scenario for seed with every
// invariant armed (xpsim's -scenario-seed flag; see internal/scenario).
func RunScenario(seed uint64) ScenarioReport {
	return scenario.Run(seed)
}
