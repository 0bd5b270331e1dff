package invariant

import (
	"fmt"
	"sync"

	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Checker validates one network's trace stream against the paper's
// invariants. It is an obs.Sink spliced in front of whatever tracer the
// network already had: every event is checked, then forwarded, so
// existing trace output is byte-identical with the checker installed.
//
// A Checker is single-goroutine like the simulation itself (under the
// parallel sweep runner it lives entirely on its trial's worker
// goroutine); only the Set it may report into is shared.
type Checker struct {
	opt   Options
	net   *netem.Network
	prior *obs.Tracer // the tracer displaced by Attach; nil if none
	self  *obs.Tracer // the tracer Attach installed; Finish looks for it

	// flows[id] is flow id's credit ledger and ports[n] the tracker of
	// the port whose Number is n (obs.Event.Port): flow IDs are dense and
	// recycled (Network.NextFlowID) and port numbers are positions in
	// Network.AllPorts, so both are plain tables. ports fills in lazily —
	// Attach runs before the topology exists — and entry 0 stays nil.
	flows []flowState
	ports []*portState
	// voided: a host-stall fault ran or routes were rebuilt mid-run;
	// either breaks the stable-routing/bounded-Δd_host premises the §3.1
	// positional (queue/delay) bounds are derived from, so Finish
	// discards them. Conservation and token-bucket checks stay armed.
	voided bool
	done   bool
	stats  Stats
	kept   []Violation // reported findings, when Options routes them nowhere

	// flight retains the last-N events when Options.FlightOut is set;
	// flightDumped latches after the first violation's dump. held lists
	// the ports whose findings froze a lead-up (portState.leadUp), in the
	// order they first held one: a held finding is reported at Finish,
	// when the live ring holds the end of the run instead.
	flight       *obs.RingSink
	flightDumped bool
	held         []*portState
	// flightMu serializes dumps onto a FlightOut that other checkers
	// share: the Set's, for a checker it attached; nil for a bare Attach,
	// which is single-goroutine.
	flightMu *sync.Mutex
}

// flowState is the credit-conservation ledger of one ExpressPass flow:
// credit sequences received by the sender and not yet spent on data, as
// an unordered set. A sender answers a credit within its processing
// delay, so the set holds a handful of entries (a host stall parks a few
// hundred for its duration) and a scan beats hashing each credit in and
// out of a map. The zero value is an empty ledger.
type flowState struct {
	outstanding []int64
}

// find returns the position of seq in the set, or -1.
func (fs *flowState) find(seq int64) int {
	for i, s := range fs.outstanding {
		if s == seq {
			return i
		}
	}
	return -1
}

// spend removes seq from the set and reports whether it was there.
func (fs *flowState) spend(seq int64) bool {
	i := fs.find(seq)
	if i < 0 {
		return false
	}
	last := len(fs.outstanding) - 1
	fs.outstanding[i] = fs.outstanding[last]
	fs.outstanding = fs.outstanding[:last]
	return true
}

// portState is the per-port shadow meter and queue/delay tracker.
type portState struct {
	name   string
	exempt bool // carries uncredited traffic: queue/delay checks off

	// Shadow token bucket, same arithmetic as netem's: tokens are bytes,
	// refilled at the port's configured credit ratio of line rate, capped
	// at the spec tolerance (NOT the port's configured burst — that is
	// the thing under test). Each credit is charged its nominal MinFrame,
	// mirroring the scheduler.
	rate   unit.Rate
	tokens float64
	tol    float64
	last   sim.Time

	// Queue/delay bound state. fifo holds enqueue timestamps of packets
	// currently in the data queue (the queue is strict FIFO, so Deq
	// events pair with the oldest entry).
	bound    float64
	delayCap sim.Duration
	noDelay  bool // PFC can pause the queue: delay cap not meaningful
	fifo     []sim.Time
	fifoHead int

	// Queue/delay findings are positional: a port that later turns out
	// to carry uncredited (non-ExpressPass) traffic is exempt, so its
	// findings are held here until Finish instead of reported at event
	// time. Capped; overflow is summarized.
	pending        []Violation
	pendingDropped int
	// leadUp is the flight ring's events frozen when pending[0] was
	// held, while the dump is still owed; an exemption drops them.
	leadUp []obs.Event
}

const pendingCap = 8

// shadowEps absorbs float associativity drift between the shadow meter
// and the port's bucket (they refill at different instants).
const shadowEps = 0.01 // bytes

// subscription lists the event types the checker reads: one entry per
// case of check's switch, which sits right below Record. Attach builds
// the spliced tracer's filter from it, so emission sites skip building
// what no case would look at. The two are kept from drifting by
// TestSubscriptionIsExactlyWhatIsChecked, not by construction — a table
// of handler func values would be, but a pointer handed to an indirect
// call escapes, so dispatching through one costs either a heap
// allocation per event or a second 80-byte copy of it (measured at 3.4%
// of an armed fig17 run), and that copy is what this design removes.
var subscription = [...]obs.EventType{
	obs.EvCreditRecv,
	obs.EvDataSend,
	obs.EvCreditWaste,
	obs.EvCreditTx,
	obs.EvDataEnq,
	obs.EvDataDeq,
	obs.EvDataDrop,
	obs.EvFaultDrop,
	obs.EvFaultStart,
	obs.EvRouteBuild,
	obs.EvFlowRetire,
}

// Attach splices a Checker into net's trace path and returns it. Call
// it before traffic flows (ideally right after the network is built —
// a Set does it from the network's netem.Wiring) and after any
// SetTracer the caller performs, or the checker will be displaced.
//
// The spliced tracer passes the subscription, plus whatever the
// displaced tracer passes (it filters again on its own, so it records
// exactly what it did unarmed), plus everything when a flight recorder
// is armed — the ring exists to show the lead-up, queue depths included.
func Attach(net *netem.Network, opt Options) *Checker {
	c := &Checker{
		opt:   opt,
		net:   net,
		prior: net.Tracer(),
	}
	if c.opt.FlightOut != nil {
		n := c.opt.FlightEvents
		if n <= 0 {
			n = defaultFlightEvents
		}
		c.flight = obs.NewRingSink(n)
	}
	types := append([]obs.EventType(nil), subscription[:]...)
	for ty := obs.EventType(0); ty < obs.NumEventTypes; ty++ {
		if c.flight != nil || (c.prior != nil && c.prior.Enabled(ty)) {
			types = append(types, ty)
		}
	}
	c.self = obs.NewTracer(c, types...)
	net.SetTracer(c.self)
	return c
}

// report dumps the flight ring (once per checker) before handing v to
// the configured reporting path. At Finish the dump is the ring as it
// stood at the first held finding of a port that never proved exempt,
// headed by that finding.
func (c *Checker) report(v Violation) {
	if c.flight != nil && !c.flightDumped {
		c.flightDumped = true
		head, evs := v, c.flight.Events()
		for _, ps := range c.held {
			if c.done && ps.leadUp != nil {
				head, evs = ps.pending[0], ps.leadUp
				break
			}
		}
		if c.flightMu != nil {
			c.flightMu.Lock()
		}
		fmt.Fprintf(c.opt.FlightOut, "# invariant violation: %s\n# last %d trace events before the violation:\n", head, len(evs))
		obs.WriteJSONL(c.opt.FlightOut, evs)
		if c.flightMu != nil {
			c.flightMu.Unlock()
		}
	}
	if c.opt.OnViolation != nil {
		c.opt.OnViolation(v)
	} else {
		c.kept = append(c.kept, v)
	}
}

// Record checks ev and forwards it to the displaced tracer. It is the
// obs.Sink entry point; simulation code never calls it directly.
func (c *Checker) Record(ev obs.Event) {
	if !c.done {
		// Feed the flight ring before checking so the offending event
		// itself is the last entry of a dump.
		if c.flight != nil {
			c.flight.Record(ev)
		}
		if c.check(&ev) {
			c.stats.Events++
		}
	}
	if c.prior != nil {
		c.prior.Emit(ev)
	}
}

// check runs the check behind ev's type and reports whether there is
// one. Its cases are the subscription. The calls are static so that ev —
// a pointer to Record's own parameter — stays on the stack.
func (c *Checker) check(ev *obs.Event) bool {
	switch ev.Type {
	case obs.EvCreditRecv:
		c.onCreditRecv(ev)
	case obs.EvDataSend:
		c.onDataSend(ev)
	case obs.EvCreditWaste:
		c.onCreditWaste(ev)
	case obs.EvCreditTx:
		c.onCreditTx(ev)
	case obs.EvDataEnq:
		c.onDataEnq(ev)
	case obs.EvDataDeq:
		c.onDataDeq(ev)
	case obs.EvDataDrop:
		c.onDataDrop(ev)
	case obs.EvFaultDrop:
		c.onFaultDrop(ev)
	case obs.EvFaultStart:
		c.onFaultStart(ev)
	case obs.EvRouteBuild:
		// Credits granted under the old routing release data onto paths
		// whose limiters never admitted them: see onFaultStart.
		c.voided = true
	case obs.EvFlowRetire:
		// The network returned this flow ID to its free pool; a later
		// dial may reuse it. Drop the retired flow's credit ledger so the
		// successor starts clean — otherwise a reused (id, seq) pair
		// would false-trip the dup-delivery check.
		fs := c.ledger(ev.Flow)
		fs.outstanding = fs.outstanding[:0]
	default:
		return false
	}
	return true
}

// Stats returns what the checker has looked at so far; the port,
// voided and displaced figures are filled in by Finish.
func (c *Checker) Stats() Stats { return c.stats }

// Close implements obs.Sink by finishing the checker. The displaced
// tracer is NOT closed — its owner (the obs runtime or the test that
// installed it) retains that responsibility.
func (c *Checker) Close() error {
	c.Finish()
	return nil
}

// Finish flushes the positional (queue/delay) findings of every port
// that never proved exempt, reports them, releases the checker's hold
// on the network, and returns the flushed violations — in port order
// (Network.AllPorts), each port's suppression summary right after its
// findings, so the same run always lists them the same way. A checker
// that keeps its findings (no OnViolation) returns every
// one instead, in the order reported: those raised as the run went, then
// the flushed ones. Idempotent; the checker keeps forwarding events
// afterwards but checks nothing more.
func (c *Checker) Finish() []Violation {
	if c.done {
		return nil
	}
	c.done = true
	c.stats.Networks = 1
	if c.voided {
		c.stats.Voided = 1
	}
	if c.net.Tracer() != c.self {
		c.stats.Displaced = 1
	}
	var out []Violation
	for _, ps := range c.ports {
		if ps == nil {
			continue
		}
		c.stats.Ports++
		if ps.exempt {
			c.stats.Exempt++
		}
		if ps.exempt || c.voided {
			continue
		}
		out = append(out, ps.pending...)
		if ps.pendingDropped > 0 {
			out = append(out, Violation{Invariant: "queue-bound", Scope: ps.name,
				Detail: fmt.Sprintf("%d further queue/delay violations suppressed", ps.pendingDropped)})
		}
	}
	for _, v := range out {
		c.report(v)
	}
	if c.opt.OnViolation == nil {
		out = c.kept
	}
	c.net, c.flows, c.ports, c.kept, c.held = nil, nil, nil, nil, nil
	return out
}

// ---- credit conservation ----

// ledger returns flow id's credit ledger, growing the table to reach it
// (geometrically, as netem.Host.Register grows its demux table over the
// same IDs).
func (c *Checker) ledger(id int64) *flowState {
	if id >= int64(len(c.flows)) {
		c.flows = append(c.flows, make([]flowState, id+1-int64(len(c.flows)))...)
	}
	return &c.flows[id]
}

func (c *Checker) onCreditRecv(ev *obs.Event) {
	fs := c.ledger(ev.Flow)
	if fs.find(ev.Seq) >= 0 {
		c.report(Violation{Time: ev.T, Invariant: "credit-conservation",
			Scope: ev.Scope, Flow: ev.Flow,
			Detail: fmt.Sprintf("credit %d delivered twice", ev.Seq)})
		return
	}
	fs.outstanding = append(fs.outstanding, ev.Seq)
}

func (c *Checker) onDataSend(ev *obs.Event) {
	if !c.ledger(ev.Flow).spend(ev.Seq) {
		c.report(Violation{Time: ev.T, Invariant: "credit-conservation",
			Scope: ev.Scope, Flow: ev.Flow,
			Detail: fmt.Sprintf("data packet spends credit %d which is not outstanding (uncredited send or double-spend)", ev.Seq)})
		return
	}
	if ev.Bytes > unit.MTUPayload {
		c.report(Violation{Time: ev.T, Invariant: "credit-conservation",
			Scope: ev.Scope, Flow: ev.Flow,
			Detail: fmt.Sprintf("payload %v exceeds the one-MTU authorization of a credit (%v)", ev.Bytes, unit.Bytes(unit.MTUPayload))})
	}
}

func (c *Checker) onCreditWaste(ev *obs.Event) {
	// A wasted credit was received but authorizes no data: retire it so
	// it can never be spent later.
	c.ledger(ev.Flow).spend(ev.Seq)
}

// ---- per-port state ----

// port returns the tracker of port number n (obs.Event.Port), creating
// it the first time the port is heard from, or nil when n names no port
// of this network (0: the event did not come from one).
func (c *Checker) port(n int32) *portState {
	if uint(n) < uint(len(c.ports)) {
		if ps := c.ports[n]; ps != nil {
			return ps
		}
	}
	return c.trackPort(n)
}

// trackPort is port's miss path: it builds the tracker from the port's
// configuration.
func (c *Checker) trackPort(n int32) *portState {
	all := c.net.AllPorts()
	if n <= 0 || int(n) > len(all) {
		return nil
	}
	if len(c.ports) <= len(all) {
		c.ports = append(c.ports, make([]*portState, len(all)+1-len(c.ports))...)
	}
	port := all[n-1]
	cfg := port.Config()
	ps := &portState{
		name:    port.Name(),
		rate:    cfg.Rate.Scale(cfg.CreditRatio),
		tol:     float64(DefaultBurstTolerance),
		noDelay: cfg.PFC > 0,
	}
	ps.tokens = ps.tol
	ps.bound = float64(c.queueBound(cfg))
	ps.delayCap = c.delayCap(cfg)
	c.ports[n] = ps
	return ps
}

// queueBound derives the §3.1 occupancy cap for a port: the credit
// buffer carving bounds how many credits — and therefore how many MTUs
// of returning data — can be outstanding against this queue. Credits
// for data crossing this port may sit queued at EVERY credit-class
// queue along the multi-hop reverse path, and their delayed release
// clusters the data arrivals. The longest reverse path in the
// supported fabrics is six credit-class queues deep (fat tree:
// host NIC + ToR + agg + core + agg + ToR); add headroom for
// host-delay spread and credits in flight on the wire. The bound allows
// 12·cap+16 = 112 at the default carving, well below the 250-frame
// buffer a congestion-collapsed queue would fill, which is the §3.1
// claim this tripwire defends. It is not above every draw: at seed 11,
// scale 0.05, a ToR downlink (tor5->h5.2, in 2 of fig18's 15 networks
// and 2 of fig20's 16) reaches 113–114 frames — a standing last-hop
// queue that creeps up while two flows converge on one receiver
// (EXPERIMENTS.md, Known deviations). Other draws peak at 20–85
// (fig18's aggressive feedback corners: 85 at seed 43, 63 at 42, 30 at
// 45). Mid-run route rebuilds (EvRouteBuild) void the check entirely
// rather than stretching it.
func (c *Checker) queueBound(cfg netem.PortConfig) unit.Bytes {
	if c.opt.QueueBound > 0 {
		return c.opt.QueueBound
	}
	return unit.Bytes(12*cfg.CreditQueueCap+16) * unit.MaxFrame
}

// delayCap derives the queuing-delay cap: the time to drain a full
// bound's worth of bytes (plus one in-service frame) at the port's data
// share of line rate, doubled for credit-preemption and scheduling
// slack. If the occupancy bound holds, FIFO service implies this cap.
func (c *Checker) delayCap(cfg netem.PortConfig) sim.Duration {
	if c.opt.DelayCap > 0 {
		return c.opt.DelayCap
	}
	ratio := cfg.CreditRatio
	if ratio <= 0 || ratio >= 1 {
		ratio = unit.CreditRatio
	}
	bound := c.queueBound(cfg)
	return 2 * unit.TxTime(bound+unit.MaxFrame, cfg.Rate.Scale(1-ratio))
}

// exempt turns the queue/delay checks of ps off and discards its held
// findings with their lead-up.
func (c *Checker) exempt(ps *portState) {
	ps.exempt = true
	ps.fifo, ps.fifoHead = nil, 0
	ps.pending, ps.pendingDropped, ps.leadUp = nil, 0, nil
}

// hold keeps a positional finding of ps for Finish. A port's first one
// freezes a copy of the flight ring while no dump has been written, so
// the finding that heads the dump at Finish is the earliest of a port
// that never proved exempt, whichever ports the run exempts later. Only
// ports that hold findings pay for a copy.
func (c *Checker) hold(ps *portState, v Violation) {
	if c.flight != nil && !c.flightDumped && len(ps.pending) == 0 {
		ps.leadUp = c.flight.Events()
		c.held = append(c.held, ps)
	}
	if len(ps.pending) >= pendingCap {
		ps.pendingDropped++
		return
	}
	ps.pending = append(ps.pending, v)
}

// ---- token-bucket conformance ----

func (c *Checker) onCreditTx(ev *obs.Event) {
	ps := c.port(ev.Port)
	if ps == nil {
		return
	}
	// Same refill arithmetic as netem's tokenBucket, charged the nominal
	// MinFrame the scheduler charges (size randomization must not shave
	// the credited data rate).
	if ev.T > ps.last {
		ps.tokens += float64(ev.T-ps.last) * float64(ps.rate) / 8 / float64(sim.Second)
		if ps.tokens > ps.tol {
			ps.tokens = ps.tol
		}
		ps.last = ev.T
	}
	ps.tokens -= float64(unit.MinFrame)
	if ps.tokens < -shadowEps {
		c.report(Violation{Time: ev.T, Invariant: "token-bucket",
			Scope: ev.Scope, Flow: ev.Flow,
			Detail: fmt.Sprintf("credit throughput exceeds configured ratio: shadow meter overdrawn by %.1f bytes (rate %v, tolerance %v)",
				-ps.tokens, ps.rate, unit.Bytes(ps.tol))})
		ps.tokens = 0 // re-arm so a persistent overrun reports per excess credit, not cumulatively
	}
}

// ---- queue / delay bound ----

func (c *Checker) onDataEnq(ev *obs.Event) {
	if c.opt.NoQueueBound && c.opt.NoDelayBound {
		return
	}
	ps := c.port(ev.Port)
	if ps == nil || ps.exempt {
		return
	}
	kind := packet.Kind(ev.Aux2)
	// Uncredited data or acks mean this port serves a non-ExpressPass
	// transport: the §3.1 bound does not apply to it.
	if (kind == packet.Data && ev.Aux == 0) || kind == packet.Ack {
		c.exempt(ps)
		return
	}
	if !c.opt.NoQueueBound && ev.Val > ps.bound {
		c.hold(ps, Violation{Time: ev.T, Invariant: "queue-bound",
			Scope: ev.Scope, Flow: ev.Flow,
			Detail: fmt.Sprintf("data queue %v exceeds derived §3.1 bound %v",
				unit.Bytes(ev.Val), unit.Bytes(ps.bound))})
	}
	if !c.opt.NoDelayBound {
		ps.fifo = append(ps.fifo, ev.T)
	}
}

func (c *Checker) onDataDeq(ev *obs.Event) {
	ps := c.port(ev.Port)
	if ps == nil || ps.exempt || c.opt.NoDelayBound {
		return
	}
	if ps.fifoHead >= len(ps.fifo) {
		return // tracking started mid-queue or was reset by a fault flush
	}
	enq := ps.fifo[ps.fifoHead]
	ps.fifoHead++
	if ps.fifoHead > 64 && ps.fifoHead*2 >= len(ps.fifo) {
		n := copy(ps.fifo, ps.fifo[ps.fifoHead:])
		ps.fifo = ps.fifo[:n]
		ps.fifoHead = 0
	}
	if ps.noDelay {
		return
	}
	if d := ev.T - enq; d > ps.delayCap {
		c.hold(ps, Violation{Time: ev.T, Invariant: "delay-bound",
			Scope: ev.Scope, Flow: ev.Flow,
			Detail: fmt.Sprintf("per-packet queuing delay %v exceeds derived cap %v", d, ps.delayCap)})
	}
}

func (c *Checker) onDataDrop(ev *obs.Event) {
	if c.opt.NoQueueBound {
		return
	}
	ps := c.port(ev.Port)
	if ps == nil || ps.exempt {
		return
	}
	// A drop-tail loss on a credited-only port means occupancy reached
	// the full buffer — far past the §3.1 bound.
	c.hold(ps, Violation{Time: ev.T, Invariant: "queue-bound",
		Scope: ev.Scope, Flow: ev.Flow,
		Detail: fmt.Sprintf("data-class drop on a credited port (queue at %v)", unit.Bytes(ev.Val))})
}

// ---- fault interactions ----

// onFaultDrop clears a port's delay FIFO: a hard link-down flushes the
// queue without Deq events, so enqueue timestamps no longer pair.
func (c *Checker) onFaultDrop(ev *obs.Event) {
	if ps := c.port(ev.Port); ps != nil {
		ps.fifo, ps.fifoHead = nil, 0
	}
}

// faultKind returns the "<kind>" half of a "<kind>:<target>" fault
// scope (the whole scope when there is no colon).
func faultKind(scope string) string {
	for i := 0; i < len(scope); i++ {
		if scope[i] == ':' {
			return scope[:i]
		}
	}
	return scope
}

// onFaultStart classifies a starting fault by whether it breaks a
// premise the §3.1 positional bounds are derived from.
//
// Voiding faults (queue/delay findings for the whole run are discarded
// by Finish; conservation and token-bucket checks stay armed — no fault
// may mint, double-spend, or over-admit credits):
//
//   - stall: a credit-processing stall releases the accumulated
//     credits' data in one line-rate burst, violating the bounded
//     Δd_host premise — and the burst propagates to every downstream
//     queue, not just the stalled NIC (which is additionally exempted
//     outright). EvRouteBuild voids the run the same way: credits
//     granted under the old routing release data onto paths whose
//     credit limiters never admitted them.
//   - dup: duplicated data frames are uncredited bytes in data queues.
//   - reorder / jitter-delay: held-back packets land in clusters,
//     breaking the paced-arrival premise of the delay bound.
//   - jitter-rate: the bound assumes a fixed service rate; a stretched
//     transmitter serves slower than the credits were metered for.
//
// Non-voiding faults — flap, the loss chains (loss/gemodel/state), and
// corruption — only remove packets, which can never grow a queue past
// its healthy-run bound, so every check stays armed through them
// (TestFaultKindsVoidOrStayArmed holds each kind to its column).
func (c *Checker) onFaultStart(ev *obs.Event) {
	switch faultKind(ev.Scope) {
	case "dup", "reorder", "jitter-delay", "jitter-rate":
		c.voided = true
	case "stall":
		c.voided = true
		// The event carries the stalled host's NIC as its port.
		if ps := c.port(ev.Port); ps != nil {
			c.exempt(ps)
		}
	}
}
