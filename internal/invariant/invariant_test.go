package invariant

import (
	"strings"
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// collect returns Options routing violations into the returned slice.
func collect() (*[]Violation, Options) {
	var vs []Violation
	return &vs, Options{OnViolation: func(v Violation) { vs = append(vs, v) }}
}

// outstanding returns the number of credits received but not yet spent
// by flow — in-flight authorizations.
func (c *Checker) outstanding(flow int64) int {
	if flow < 0 || flow >= int64(len(c.flows)) {
		return 0
	}
	return len(c.flows[flow].outstanding)
}

// TestCleanRunNoViolations drives a healthy multi-flow ExpressPass
// dumbbell to drain with every invariant armed: nothing may fire, and
// the packet pool must conserve.
func TestCleanRunNoViolations(t *testing.T) {
	eng := sim.New(7)
	d := topology.NewDumbbell(eng, 4, topology.Config{})
	vs, opt := collect()
	c := Attach(d.Net, opt)
	var flows []*transport.Flow
	for i := range d.Senders {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 200*unit.KB, 0)
		core.Dial(f, core.Config{})
		flows = append(flows, f)
	}
	eng.Run()
	for i, f := range flows {
		if !f.Finished {
			t.Fatalf("flow %d did not finish", i)
		}
	}
	if got := c.Finish(); len(got) != 0 {
		t.Fatalf("positional violations on a clean run: %v", got)
	}
	if len(*vs) != 0 {
		t.Fatalf("violations on a clean run: %v", *vs)
	}
	if dv := CheckDrained(d.Net); len(dv) != 0 {
		t.Fatalf("pool conservation violated: %v", dv)
	}
}

// brokenBurst is a deliberately broken credit limiter: a 64-credit
// token bucket lets the credit class burst far past the §3.1 window
// bound even though its long-run rate is still the ratio.
const brokenBurst = 64 * unit.MinFrame

// star builds a hand-wired star whose switch ports use the given credit
// burst, plus four flows all sending to host 0 so their credit streams
// converge on the sw->h0 egress at ~2x the credit ratio.
func star(eng *sim.Engine, burst unit.Bytes) (*netem.Network, []*transport.Flow) {
	net := netem.NewNetwork(eng)
	sw := net.NewSwitch("sw")
	cfg := netem.PortConfig{
		Rate: 10 * unit.Gbps, Delay: 4 * sim.Microsecond,
		DataCapacity: unit.Bytes(384500), CreditQueueCap: 8, CreditBurst: burst,
	}
	var hosts []*netem.Host
	for i := 0; i < 5; i++ {
		h := net.NewHost("h"+string(rune('0'+i)), netem.HardwareNICDelay())
		net.Connect(h, sw, cfg)
		hosts = append(hosts, h)
	}
	net.BuildRoutes()
	var flows []*transport.Flow
	for i := 1; i < 5; i++ {
		f := transport.NewFlow(net, hosts[0], hosts[i], 300*unit.KB, 0)
		core.Dial(f, core.Config{})
		flows = append(flows, f)
	}
	return net, flows
}

// TestTokenBucketCatchesBrokenLimiter is the required negative test: a
// limiter misconfigured with a 64-credit burst admits credit bursts the
// spec forbids, and the shadow meter must catch it — while the same
// traffic under the stock limiter stays silent.
func TestTokenBucketCatchesBrokenLimiter(t *testing.T) {
	run := func(burst unit.Bytes) []Violation {
		eng := sim.New(11)
		vs, opt := collect()
		net, _ := star(eng, burst)
		c := Attach(net, opt)
		eng.RunUntil(2 * sim.Millisecond)
		eng.Run()
		c.Finish()
		return *vs
	}

	if vs := run(0); len(vs) != 0 { // stock limiter (default burst)
		t.Fatalf("healthy limiter flagged: %v", vs[0])
	}
	vs := run(brokenBurst)
	bucket := 0
	for _, v := range vs {
		if v.Invariant == "token-bucket" {
			bucket++
		}
	}
	// Collateral queue-bound/delay-bound findings are expected — excess
	// credits legitimately pile data up downstream — but the shadow
	// meter itself must flag the limiter.
	if bucket == 0 {
		t.Fatalf("broken 64-credit limiter not caught by the token-bucket checker (got %v)", vs)
	}
}

// tinyNet builds a one-link network for synthetic event injection.
func tinyNet(t *testing.T) (*netem.Network, string) {
	t.Helper()
	eng := sim.New(1)
	net := netem.NewNetwork(eng)
	sw := net.NewSwitch("sw")
	h := net.NewHost("h0", netem.HardwareNICDelay())
	net.Connect(h, sw, netem.PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond,
		DataCapacity: unit.Bytes(384500), CreditQueueCap: 8})
	net.BuildRoutes()
	return net, "sw->h0"
}

// onPort stamps a hand-built event the way a port's emission sites stamp
// a real one: Scope is the port's name and Port its number. Every test
// that injects port events builds them here.
func onPort(net *netem.Network, name string, ev obs.Event) obs.Event {
	for _, p := range net.AllPorts() {
		if p.Name() == name {
			ev.Scope, ev.Port = name, p.Number()
			return ev
		}
	}
	panic("no port " + name)
}

func TestCreditConservationDetectsUncreditedSend(t *testing.T) {
	net, _ := tinyNet(t)
	vs, opt := collect()
	Attach(net, opt)
	tr := net.Tracer()
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 1, Seq: 5, Bytes: 1460})
	if len(*vs) != 1 || (*vs)[0].Invariant != "credit-conservation" {
		t.Fatalf("uncredited send not flagged: %v", *vs)
	}
}

func TestCreditConservationDetectsDoubleSpend(t *testing.T) {
	net, _ := tinyNet(t)
	vs, opt := collect()
	Attach(net, opt)
	tr := net.Tracer()
	tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 1, Seq: 5, Bytes: 84})
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 1, Seq: 5, Bytes: 1460})
	if len(*vs) != 0 {
		t.Fatalf("legitimate spend flagged: %v", *vs)
	}
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 1, Seq: 5, Bytes: 1460})
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Detail, "double-spend") {
		t.Fatalf("double-spend not flagged: %v", *vs)
	}
}

func TestCreditConservationDetectsOverMTUPayload(t *testing.T) {
	net, _ := tinyNet(t)
	vs, opt := collect()
	Attach(net, opt)
	tr := net.Tracer()
	tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 2, Seq: 1, Bytes: 84})
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 2, Seq: 1, Bytes: unit.MTUPayload + 1})
	if len(*vs) != 1 || !strings.Contains((*vs)[0].Detail, "one-MTU") {
		t.Fatalf("over-MTU payload not flagged: %v", *vs)
	}
}

func TestWastedCreditCannotBeSpentLater(t *testing.T) {
	net, _ := tinyNet(t)
	vs, opt := collect()
	c := Attach(net, opt)
	tr := net.Tracer()
	tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 1, Seq: 9, Bytes: 84})
	tr.Emit(obs.Event{Type: obs.EvCreditWaste, Scope: "h0", Flow: 1, Seq: 9})
	if n := c.outstanding(1); n != 0 {
		t.Fatalf("wasted credit still outstanding: %d", n)
	}
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 1, Seq: 9, Bytes: 1460})
	if len(*vs) != 1 {
		t.Fatalf("spend of a wasted credit not flagged: %v", *vs)
	}
}

// TestQueueBoundPositional checks that occupancy findings on a credited
// port surface at Finish, and that a port later proven to carry
// uncredited traffic is exempted retroactively.
func TestQueueBoundPositional(t *testing.T) {
	net, port := tinyNet(t)
	vs, opt := collect()
	c := Attach(net, opt)
	tr := net.Tracer()
	// Credited enqueue far over the derived bound: held until Finish.
	tr.Emit(onPort(net, port, obs.Event{Type: obs.EvDataEnq, Flow: 1, Bytes: 1538,
		Val: 300000, Aux: 7, Aux2: float64(packet.Data)}))
	if len(*vs) != 0 {
		t.Fatalf("positional finding reported before Finish: %v", *vs)
	}
	got := c.Finish()
	if len(got) != 1 || got[0].Invariant != "queue-bound" {
		t.Fatalf("queue-bound finding not flushed: %v", got)
	}
	if len(*vs) != 1 {
		t.Fatalf("finding not reported at Finish: %v", *vs)
	}

	// Same overload, but the port later carries uncredited data: exempt.
	net2, port2 := tinyNet(t)
	vs2, opt2 := collect()
	c2 := Attach(net2, opt2)
	tr2 := net2.Tracer()
	tr2.Emit(onPort(net2, port2, obs.Event{Type: obs.EvDataEnq, Flow: 1, Bytes: 1538,
		Val: 300000, Aux: 7, Aux2: float64(packet.Data)}))
	tr2.Emit(onPort(net2, port2, obs.Event{Type: obs.EvDataEnq, Flow: 2, Bytes: 1538,
		Val: 301538, Aux: 0, Aux2: float64(packet.Data)}))
	if got := c2.Finish(); len(got) != 0 || len(*vs2) != 0 {
		t.Fatalf("exempt (baseline-transport) port still flagged: %v %v", got, *vs2)
	}
}

// TestRouteRebuildVoidsPositional pins the reroute escape hatch: a
// mid-run BuildRoutes (failover, repair) strands credits granted under
// the old routing, so queue/delay findings are discarded at Finish —
// the §3.1 bounds assume stable symmetric routing. Conservation checks
// stay armed through the rebuild.
func TestRouteRebuildVoidsPositional(t *testing.T) {
	net, port := tinyNet(t)
	vs, opt := collect()
	c := Attach(net, opt)
	tr := net.Tracer()
	tr.Emit(onPort(net, port, obs.Event{Type: obs.EvDataEnq, Flow: 1, Bytes: 1538,
		Val: 300000, Aux: 7, Aux2: float64(packet.Data)}))
	tr.Emit(obs.Event{T: sim.Millisecond, Type: obs.EvRouteBuild, Scope: "net"})
	// Conservation still fires after the rebuild.
	tr.Emit(obs.Event{T: sim.Millisecond, Type: obs.EvDataSend, Scope: "h0", Flow: 1, Seq: 99, Bytes: 1460})
	if got := c.Finish(); len(got) != 0 {
		t.Fatalf("positional findings survived a route rebuild: %v", got)
	}
	if len(*vs) != 1 || (*vs)[0].Invariant != "credit-conservation" {
		t.Fatalf("conservation check did not stay armed: %v", *vs)
	}
}

// TestBuildRoutesEmitsOnlyMidRun pins the emission rule: the initial
// t=0 build is silent (every topology builds routes once before
// traffic), a rebuild after the clock advances announces itself.
func TestBuildRoutesEmitsOnlyMidRun(t *testing.T) {
	eng := sim.New(1)
	net := netem.NewNetwork(eng)
	sw := net.NewSwitch("sw")
	h := net.NewHost("h0", netem.HardwareNICDelay())
	net.Connect(h, sw, netem.PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond,
		DataCapacity: unit.Bytes(384500), CreditQueueCap: 8})
	var events []obs.Event
	net.SetTracer(obs.NewTracer(sinkFunc(func(ev obs.Event) { events = append(events, ev) })))
	net.BuildRoutes() // t = 0: silent
	for _, ev := range events {
		if ev.Type == obs.EvRouteBuild {
			t.Fatal("initial BuildRoutes emitted a route_build event")
		}
	}
	eng.RunFor(sim.Millisecond)
	net.BuildRoutes() // mid-run: announced
	var n int
	for _, ev := range events {
		if ev.Type == obs.EvRouteBuild {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("mid-run BuildRoutes emitted %d route_build events, want 1", n)
	}
}

type sinkFunc func(obs.Event)

func (f sinkFunc) Record(ev obs.Event) { f(ev) }
func (f sinkFunc) Close() error        { return nil }

func TestDelayBoundPairsFIFO(t *testing.T) {
	net, port := tinyNet(t)
	vs, opt := collect()
	c := Attach(net, opt)
	tr := net.Tracer()
	enq := func(at sim.Time, flow int64) {
		tr.Emit(onPort(net, port, obs.Event{T: at, Type: obs.EvDataEnq, Flow: flow,
			Bytes: 1538, Val: 1538, Aux: 3, Aux2: float64(packet.Data)}))
	}
	deq := func(at sim.Time, flow int64) {
		tr.Emit(onPort(net, port, obs.Event{T: at, Type: obs.EvDataDeq, Flow: flow,
			Bytes: 1538, Val: 0}))
	}
	// Fast turnaround: fine.
	enq(0, 1)
	deq(2*sim.Microsecond, 1)
	// Pathological wait: must be flagged at Finish.
	enq(10*sim.Microsecond, 2)
	deq(10*sim.Millisecond, 2)
	got := c.Finish()
	if len(got) != 1 || got[0].Invariant != "delay-bound" {
		t.Fatalf("delay-bound finding missing: %v (reported %v)", got, *vs)
	}
}

func TestDataDropOnCreditedPortFlagged(t *testing.T) {
	net, port := tinyNet(t)
	_, opt := collect()
	c := Attach(net, opt)
	tr := net.Tracer()
	tr.Emit(onPort(net, port, obs.Event{Type: obs.EvDataEnq, Flow: 1, Bytes: 1538,
		Val: 1538, Aux: 3, Aux2: float64(packet.Data)}))
	tr.Emit(onPort(net, port, obs.Event{Type: obs.EvDataDrop, Flow: 1, Bytes: 1538, Val: 384500}))
	got := c.Finish()
	if len(got) == 0 {
		t.Fatal("drop-tail loss on a credited port not flagged")
	}
}

// TestCheckerForwardsToPriorTracer pins the tee contract: with a tracer
// already installed, attaching a checker must not change what that
// tracer records — whether it records everything or is filtered to a
// type the checker itself never reads (xpsim -trace-types qdepth): the
// spliced tracer then passes the union of both filters and the displaced
// one filters again on its own.
func TestCheckerForwardsToPriorTracer(t *testing.T) {
	t.Run("all", func(t *testing.T) { checkerForwardsToPriorTracer(t) })
	t.Run("qdepth", func(t *testing.T) { checkerForwardsToPriorTracer(t, obs.EvQueueDepth) })
}

func checkerForwardsToPriorTracer(t *testing.T, types ...obs.EventType) {
	mk := func(check bool) []obs.Event {
		eng := sim.New(3)
		d := topology.NewDumbbell(eng, 2, topology.Config{})
		ring := obs.NewRingSink(1 << 16)
		d.Net.SetTracer(obs.NewTracer(ring, types...))
		if check {
			_, opt := collect()
			Attach(d.Net, opt)
		}
		for i := range d.Senders {
			f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 50*unit.KB, 0)
			core.Dial(f, core.Config{})
		}
		eng.Run()
		return ring.Events()
	}
	plain, checked := mk(false), mk(true)
	if len(plain) == 0 {
		t.Fatal("no events traced")
	}
	if len(plain) != len(checked) {
		t.Fatalf("event count changed under checker: %d vs %d", len(plain), len(checked))
	}
	for i := range plain {
		if plain[i] != checked[i] {
			t.Fatalf("event %d differs under checker: %+v vs %+v", i, plain[i], checked[i])
		}
	}
}

// TestSetChecksEveryWiredNetwork: a Set handed to an engine as its
// wiring's check attaches a checker to every network built on it, keeps
// their findings and sums their stats at Finish — and a network on an
// engine without that wiring is not checked.
func TestSetChecksEveryWiredNetwork(t *testing.T) {
	t.Parallel()
	set := NewSet(Options{})
	run := func(eng *sim.Engine) *topology.Dumbbell {
		d := topology.NewDumbbell(eng, 2, topology.Config{})
		f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 100*unit.KB, 0)
		core.Dial(f, core.Config{})
		eng.Run()
		if !f.Finished {
			t.Fatal("flow did not finish")
		}
		return d
	}
	eng := sim.New(5)
	eng.Wiring = &netem.Wiring{Check: set.Attach}
	if d := run(eng); d.Net.Tracer() == nil {
		t.Fatal("the set did not install a checker tracer on the wired network")
	}
	if d := run(sim.New(5)); d.Net.Tracer() != nil {
		t.Fatal("a network on an unwired engine was checked")
	}
	set.Finish()
	if st := set.Stats(); st.Networks != 1 || st.Events == 0 || set.Count() != 0 {
		t.Fatalf("one clean checked network: %s, %d violations", st, set.Count())
	}
	set.Finish() // nothing attached since: a no-op
	if st := set.Stats(); st.Networks != 1 {
		t.Fatalf("second Finish counted again: %s", st)
	}
}

// TestCheckerKeepsItsFindings: a checker without OnViolation returns
// from Finish everything it found — what it raised as the
// run went, then what it held for Finish — and a second Finish nothing.
func TestCheckerKeepsItsFindings(t *testing.T) {
	t.Parallel()
	net, port := tinyNet(t)
	c := Attach(net, Options{})
	tr := net.Tracer()
	tr.Emit(onPort(net, port, obs.Event{Type: obs.EvDataEnq, Flow: 1, Bytes: 1538,
		Val: 300000, Aux: 7, Aux2: float64(packet.Data)}))
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 1, Seq: 5, Bytes: 1460})
	got := c.Finish()
	if len(got) != 2 || got[0].Invariant != "credit-conservation" || got[1].Invariant != "queue-bound" {
		t.Fatalf("kept findings: %v", got)
	}
	if again := c.Finish(); again != nil {
		t.Fatalf("second Finish returned %v", again)
	}
}

// TestRegistryCapAndCount checks a set retains at most keepCap
// violations while counting everything, and that two sets share none.
func TestRegistryCapAndCount(t *testing.T) {
	t.Parallel()
	set, other := NewSet(Options{}), NewSet(Options{})
	for i := 0; i < keepCap+10; i++ {
		set.opt.OnViolation(Violation{Invariant: "token-bucket"})
	}
	if n := set.Count(); n != keepCap+10 {
		t.Fatalf("Count = %d", n)
	}
	if n := len(set.Violations()); n != keepCap {
		t.Fatalf("retained = %d", n)
	}
	if other.Count() != 0 || len(other.Violations()) != 0 {
		t.Fatal("a second set saw the first one's violations")
	}
}
