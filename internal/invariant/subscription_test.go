package invariant

// Tests of the checker's subscription, of the port number that replaced
// the port name as its lookup key, and of what Finish and Stats report.
//
// Mutations each test was checked to fail under:
//
//   - an entry dropped from `subscription`, or a case dropped from
//     `check`: TestSubscriptionIsExactlyWhatIsChecked.
//   - `Port:` left out at one netem emission site (tried: data_deq in
//     Port.transmit), or Port.Number off by one:
//     TestEveryPortEventCarriesItsPortNumber; the off-by-one also fails
//     TestEveryInvariantFiresThroughRealEmissionSites (the host NIC's
//     events land on the switch port's tracker and the other way round).
//   - flow_retire not clearing the ledger slot:
//     TestRetiredFlowIDStartsWithACleanLedger.
//   - the stall fault carrying another port than the stalled host's NIC
//     (tried: h.NIC().Peer() in faults.StallHost):
//     TestStallExemptsTheStalledHostsNIC.
//   - Finish walking its ports in any other order (tried: back to
//     front): TestFinishReportsInPortOrder.
//
// The credit-conservation arm of the real-emission-site test uses a
// test-only sender that emits through its host's tracer, not core's
// sender: core's sender cannot be made to spend a credit twice from
// outside the package — its dedup window and its one-credit-one-packet
// emit path are private, and opening them would put a test hook on the
// hot path. The run is real (live dumbbell, the host's own tracer); only
// the misbehaving endpoint is the test's. core's own credit_recv/data_send sites are covered the
// other way round: every clean armed run (TestCleanRunNoViolations, the
// mode-matrix gate) reports an uncredited send per data packet if
// credit_recv stops arriving.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/dctcp"
	"expresspass/internal/faults"
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// TestSubscriptionIsExactlyWhatIsChecked: the spliced tracer's filter,
// the subscription list and the cases of check are one set of eleven
// types. Record is called directly so that a type missing from the
// filter still reaches the dispatch.
func TestSubscriptionIsExactlyWhatIsChecked(t *testing.T) {
	net, _ := tinyNet(t)
	_, opt := collect()
	c := Attach(net, opt)
	if len(subscription) != 11 {
		t.Errorf("subscription lists %d types, want 11", len(subscription))
	}
	subscribed := map[obs.EventType]bool{}
	for _, ty := range subscription {
		if subscribed[ty] {
			t.Errorf("%v listed twice", ty)
		}
		subscribed[ty] = true
	}
	for ty := obs.EventType(0); ty < obs.NumEventTypes; ty++ {
		before := c.Stats().Events
		c.Record(obs.Event{Type: ty, Flow: 1, Seq: int64(ty) + 1})
		if checked := c.Stats().Events > before; checked != subscribed[ty] {
			t.Errorf("%v: check has a case for it = %v, subscription lists it = %v", ty, checked, subscribed[ty])
		}
		if got := net.Tracer().Enabled(ty); got != subscribed[ty] {
			t.Errorf("%v: passes the spliced tracer = %v, subscription lists it = %v", ty, got, subscribed[ty])
		}
	}
	before := c.Stats().Events
	c.Record(obs.Event{Type: 255}) // not a type at all
	if c.Stats().Events != before {
		t.Error("an undefined event type was counted as checked")
	}
}

// TestFlightRecorderWidensSubscription: with a flight recorder armed the
// spliced tracer passes every type, and the dump after a violation on a
// real run still shows the queue-depth lines the checker itself ignores.
func TestFlightRecorderWidensSubscription(t *testing.T) {
	eng := sim.New(3)
	d := topology.NewDumbbell(eng, 2, topology.Config{})
	var dump bytes.Buffer
	vs, opt := collect()
	opt.FlightOut = &dump
	Attach(d.Net, opt)
	for ty := obs.EventType(0); ty < obs.NumEventTypes; ty++ {
		if !d.Net.Tracer().Enabled(ty) {
			t.Errorf("%v filtered out although a flight recorder is armed", ty)
		}
	}
	for i := range d.Senders {
		core.Dial(transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 50*unit.KB, 0), core.Config{})
	}
	eng.Run()
	if len(*vs) != 0 {
		t.Fatalf("clean run raised %v", *vs)
	}
	d.Net.Tracer().Emit(obs.Event{T: eng.Now(), Type: obs.EvDataSend, Scope: "h", Flow: 99, Seq: 1, Bytes: 1460})
	if len(*vs) != 1 {
		t.Fatalf("forced violation not raised: %v", *vs)
	}
	for _, want := range []string{`"ev":"qdepth"`, `"ev":"credit_qdepth"`, `"ev":"data_deq"`} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("flight dump holds no %s line", want)
		}
	}
}

// dumbbellRun drives four ExpressPass flows across a dumbbell with a
// checker attached and returns every violation: those reported as they
// happened, then those Finish flushed. before runs after the flows are
// dialed and before the clock starts.
func dumbbellRun(t *testing.T, opt Options, before func(*topology.Dumbbell)) []Violation {
	t.Helper()
	eng := sim.New(7)
	d := topology.NewDumbbell(eng, 4, topology.Config{})
	var vs []Violation
	opt.OnViolation = func(v Violation) { vs = append(vs, v) }
	c := Attach(d.Net, opt)
	var flows []*transport.Flow
	for i := range d.Senders {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 100*unit.KB, 0)
		core.Dial(f, core.Config{})
		flows = append(flows, f)
	}
	if before != nil {
		before(d)
	}
	eng.Run()
	for i, f := range flows {
		if !f.Finished {
			t.Fatalf("flow %d did not finish", i)
		}
	}
	c.Finish() // flushed findings reach OnViolation too
	return vs
}

func count(vs []Violation, invariant string) int {
	n := 0
	for _, v := range vs {
		if v.Invariant == invariant {
			n++
		}
	}
	return n
}

// TestEveryInvariantFiresThroughRealEmissionSites: under the narrow
// filter each of the four invariants still trips on events produced by a
// live run — not hand-fed to the tracer.
func TestEveryInvariantFiresThroughRealEmissionSites(t *testing.T) {
	if vs := dumbbellRun(t, Options{}, nil); len(vs) != 0 {
		t.Fatalf("clean dumbbell raised %v", vs)
	}

	t.Run("token-bucket", func(t *testing.T) {
		eng := sim.New(11)
		vs, opt := collect()
		net, _ := star(eng, brokenBurst)
		c := Attach(net, opt)
		eng.Run()
		c.Finish()
		if count(*vs, "token-bucket") == 0 {
			t.Fatalf("64-credit limiter not caught: %v", *vs)
		}
	})

	t.Run("queue-bound", func(t *testing.T) {
		vs := dumbbellRun(t, Options{QueueBound: unit.MaxFrame, NoDelayBound: true}, nil)
		if count(vs, "queue-bound") == 0 || count(vs, "delay-bound") != 0 {
			t.Fatalf("a one-frame queue bound on a shared bottleneck: %v", vs)
		}
	})

	t.Run("delay-bound", func(t *testing.T) {
		vs := dumbbellRun(t, Options{DelayCap: 1, NoQueueBound: true}, nil)
		// (The "N further suppressed" summary is filed under
		// queue-bound whichever of the two it counts.)
		if count(vs, "delay-bound") == 0 || count(vs, "token-bucket")+count(vs, "credit-conservation") != 0 {
			t.Fatalf("a 1 ps delay cap on a shared bottleneck: %v", vs)
		}
	})

	t.Run("credit-conservation", func(t *testing.T) {
		var flow int64
		vs := dumbbellRun(t, Options{}, func(d *topology.Dumbbell) {
			// The test-only sender: at 50 µs, in its host's scheduling
			// domain, it takes one credit and answers it with two data
			// packets.
			h := d.Senders[1]
			flow = int64(d.Net.NextFlowID())
			d.Net.Eng.AtD(h.Dom(), 50*sim.Microsecond, func() {
				now := h.Engine().Now()
				h.Tracer().Emit(obs.Event{T: now, Type: obs.EvCreditRecv, Scope: h.Name(), Flow: flow, Seq: 1, Bytes: 84})
				h.Tracer().Emit(obs.Event{T: now, Type: obs.EvDataSend, Scope: h.Name(), Flow: flow, Seq: 1, Bytes: 1460})
				h.Tracer().Emit(obs.Event{T: now, Type: obs.EvDataSend, Scope: h.Name(), Flow: flow, Seq: 1, Bytes: 1460})
			})
		})
		if len(vs) != 1 || vs[0].Invariant != "credit-conservation" || vs[0].Flow != flow ||
			!strings.Contains(vs[0].Detail, "double-spend") {
			t.Fatalf("one credit spent twice: %v", vs)
		}
	})
}

// TestEveryPortEventCarriesItsPortNumber traces runs that between them
// exercise every port-scoped emission site, unfiltered, and checks each
// event against the topology: an event whose scope names a port — or
// whose fault targets one, a stalled host standing for its NIC — carries
// that port's Number, and every other event carries 0.
func TestEveryPortEventCarriesItsPortNumber(t *testing.T) {
	seen := map[obs.EventType]int{}
	audit := func(t *testing.T, net *netem.Network, evs []obs.Event) {
		t.Helper()
		number := map[string]int32{}
		for _, p := range net.AllPorts() {
			number[p.Name()] = p.Number()
		}
		for _, h := range net.Hosts() {
			number["stall:"+h.Name()] = h.NIC().Number()
		}
		for _, ev := range evs {
			name := ev.Scope
			if ev.Type == obs.EvFaultStart || ev.Type == obs.EvFaultEnd {
				if !strings.HasPrefix(name, "stall:") {
					name = name[strings.IndexByte(name, ':')+1:]
				}
			}
			want := number[name] // 0 for a host or "net" scope
			if ev.Port != want {
				t.Fatalf("%v from %q carries port %d, want %d", ev.Type, ev.Scope, ev.Port, want)
			}
			if want != 0 {
				seen[ev.Type]++
			}
		}
	}

	t.Run("expresspass+faults", func(t *testing.T) {
		eng := sim.New(5)
		d := topology.NewDumbbell(eng, 4, topology.Config{})
		ring := obs.NewRingSink(1 << 18)
		d.Net.SetTracer(obs.NewTracer(ring))
		for i := range d.Senders {
			core.Dial(transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 200*unit.KB, 0), core.Config{})
		}
		apply(t, d,
			faults.Directive{Kind: "dup", Class: "data", Rate: 0.2, At: 100 * sim.Microsecond, Dur: 200 * sim.Microsecond},
			faults.Directive{Kind: "loss", Class: "credit", Rate: 0.1, Target: d.Reverse.Name(),
				At: 100 * sim.Microsecond, Dur: 200 * sim.Microsecond},
			faults.Directive{Kind: "stall", Target: d.Senders[2].Name(), At: 150 * sim.Microsecond, Dur: 50 * sim.Microsecond},
			faults.Directive{Kind: "flap", Target: d.Senders[3].NIC().Name(), At: 400 * sim.Microsecond, Dur: 50 * sim.Microsecond})
		eng.Run()
		if ring.Total() > 1<<18 {
			t.Fatalf("ring too small for %d events", ring.Total())
		}
		audit(t, d.Net, ring.Events())
	})

	t.Run("dctcp+pfc", func(t *testing.T) {
		// A 20-frame buffer under window-based senders overflows (data
		// drops); a second run with PFC pauses instead.
		for _, pfc := range []unit.Bytes{0, 8 * unit.MaxFrame} {
			eng := sim.New(5)
			d := topology.NewDumbbell(eng, 4, topology.Config{Port: netem.PortConfig{DataCapacity: 20 * unit.MaxFrame, PFC: pfc}})
			ring := obs.NewRingSink(1 << 18)
			d.Net.SetTracer(obs.NewTracer(ring))
			for i := range d.Senders {
				f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 300*unit.KB, 0)
				transport.NewConn(f, dctcp.New(), 0)
			}
			eng.RunUntil(20 * sim.Millisecond)
			if ring.Total() > 1<<18 {
				t.Fatalf("ring too small for %d events", ring.Total())
			}
			audit(t, d.Net, ring.Events())
		}
	})

	// Every type a port emits, or a fault aims at one, was actually seen:
	// the audit above cannot pass by never meeting a site.
	for _, ty := range []obs.EventType{
		obs.EvCreditDrop, obs.EvDataEnq, obs.EvDataDeq, obs.EvDataDrop, obs.EvQueueDepth,
		obs.EvCreditQDepth, obs.EvPFCPause, obs.EvPFCResume, obs.EvFaultStart, obs.EvFaultEnd,
		obs.EvFaultDrop, obs.EvCreditTx, obs.EvFaultDup,
	} {
		if seen[ty] == 0 {
			t.Errorf("no %v event came from a port: its emission site went unaudited", ty)
		}
	}
}

// TestRetiredFlowIDStartsWithACleanLedger: flow IDs are recycled, so the
// credit a retired flow left outstanding must not be there when the next
// flow with that ID receives a credit of the same sequence.
func TestRetiredFlowIDStartsWithACleanLedger(t *testing.T) {
	net, _ := tinyNet(t)
	vs, opt := collect()
	c := Attach(net, opt)
	tr := net.Tracer()
	tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 3, Seq: 5, Bytes: 84})
	tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 3, Seq: 6, Bytes: 84})
	if n := c.outstanding(3); n != 2 {
		t.Fatalf("outstanding = %d, want 2", n)
	}
	tr.Emit(obs.Event{Type: obs.EvFlowRetire, Scope: "net", Flow: 3})
	if n := c.outstanding(3); n != 0 {
		t.Fatalf("retired flow still has %d credits outstanding", n)
	}
	tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 3, Seq: 5, Bytes: 84})
	if len(*vs) != 0 {
		t.Fatalf("reused flow ID tripped the duplicate-delivery check: %v", *vs)
	}
	// The successor cannot spend what its predecessor was granted.
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 3, Seq: 6, Bytes: 1460})
	if len(*vs) != 1 {
		t.Fatalf("predecessor's credit was spendable after retirement: %v", *vs)
	}
	// Retiring an ID the checker never heard of is not an error.
	tr.Emit(obs.Event{Type: obs.EvFlowRetire, Scope: "net", Flow: 4000})
	if n := c.outstanding(4000); n != 0 {
		t.Fatalf("outstanding = %d for a flow that never received a credit", n)
	}
}

// TestStallExemptsTheStalledHostsNIC: a stall fault voids the run and
// exempts one port outright — the stalled host's NIC, and no other.
func TestStallExemptsTheStalledHostsNIC(t *testing.T) {
	eng := sim.New(9)
	st := topology.NewStar(eng, 4, topology.Config{})
	_, opt := collect()
	c := Attach(st.Net, opt)
	for i := 1; i < 4; i++ {
		core.Dial(transport.NewFlow(st.Net, st.Hosts[i], st.Hosts[0], 100*unit.KB, 0), core.Config{})
	}
	stalled := st.Hosts[2]
	stall := faults.Directive{Kind: "stall", Target: stalled.Name(), At: 100 * sim.Microsecond, Dur: 100 * sim.Microsecond}
	if err := (faults.Plan{Directives: []faults.Directive{stall}}).Apply(st.Net, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !c.voided {
		t.Fatal("stall did not void the positional findings")
	}
	for _, p := range st.Net.AllPorts() {
		ps := c.ports[p.Number()]
		if ps == nil {
			t.Fatalf("%s carried traffic but has no tracker", p.Name())
		}
		if want := p == stalled.NIC(); ps.exempt != want {
			t.Errorf("%s exempt = %v, want %v", p.Name(), ps.exempt, want)
		}
	}
	c.Finish()
	if s := c.Stats(); s.Exempt != 1 || s.Voided != 1 || s.Ports != len(st.Net.AllPorts()) {
		t.Errorf("stats after a stall: %+v", s)
	}
}

// overBound is a credited enqueue far past any derived queue bound.
func overBound(net *netem.Network, port string, flow int64) obs.Event {
	return onPort(net, port, obs.Event{Type: obs.EvDataEnq, Flow: flow, Bytes: 1538,
		Val: 300000, Aux: 7, Aux2: float64(packet.Data)})
}

// TestFinishReportsInPortOrder: held findings come out in port order,
// a port's suppression summary right behind its own findings, the same
// way on every run. The events are fed in another order on purpose.
func TestFinishReportsInPortOrder(t *testing.T) {
	run := func() []Violation {
		st := topology.NewStar(sim.New(1), 3, topology.Config{})
		_, opt := collect()
		c := Attach(st.Net, opt)
		tr := st.Net.Tracer()
		for i := 0; i < pendingCap+2; i++ {
			tr.Emit(overBound(st.Net, "sw0->h1", int64(i+1)))
		}
		tr.Emit(overBound(st.Net, "sw0->h2", 20))
		tr.Emit(overBound(st.Net, "h0->sw0", 30))
		return c.Finish()
	}
	first := run()
	var got []string
	for _, v := range first {
		got = append(got, v.Scope)
	}
	// AllPorts order on a star: h0->sw0, sw0->h0, h1->sw0, sw0->h1, …
	want := []string{"h0->sw0"}
	for i := 0; i < pendingCap+1; i++ { // eight findings and the summary
		want = append(want, "sw0->h1")
	}
	want = append(want, "sw0->h2")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Finish order:\n got %v\nwant %v", got, want)
	}
	if last := first[pendingCap+1]; !strings.Contains(last.Detail, "2 further") {
		t.Fatalf("suppression summary not right behind its port's findings: %v", last)
	}
	for i := 0; i < 20; i++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d listed its findings differently:\n%v\n%v", i, again, first)
		}
	}
}

// TestViolationListReproducible: a fat-tree whose every limiter is
// broken (64-credit bursts) produces a long mixed list — token-bucket
// findings as they happen, queue and delay findings at Finish — and the
// list is the same, in the same order, on a second run of the same seed.
func TestViolationListReproducible(t *testing.T) {
	run := func() []Violation {
		eng := sim.New(11)
		ft := topology.NewFatTree(eng, 4, topology.Config{Port: netem.PortConfig{CreditBurst: brokenBurst}})
		vs, opt := collect()
		c := Attach(ft.Net, opt)
		// One sender in pod 0 feeding a receiver in every other pod, and
		// the reverse: the credit streams converge on its ToR downlink.
		for i, h := range []int{4, 8, 12, 5, 9, 13} {
			src, dst := ft.Hosts[0], ft.Hosts[h]
			if i%2 == 1 {
				src, dst = dst, ft.Hosts[1]
			}
			core.Dial(transport.NewFlow(ft.Net, src, dst, 300*unit.KB, 0), core.Config{})
		}
		eng.Run()
		c.Finish()
		return *vs
	}
	first, second := run(), run()
	if count(first, "token-bucket") == 0 {
		t.Fatalf("broken limiters not caught: %v", first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("violation lists differ between two runs: %d, then %d\n%v\n%v", len(first), len(second), first, second)
	}
}

// TestStatsSayWhatAVerdictRestsOn walks the four ways a run can come
// out "clean" having checked less than it seems: every port exempt,
// positional findings voided, the checker displaced, no network built.
func TestStatsSayWhatAVerdictRestsOn(t *testing.T) {
	dumbbell := func() (*sim.Engine, *topology.Dumbbell, *Checker) {
		eng := sim.New(3)
		d := topology.NewDumbbell(eng, 2, topology.Config{})
		_, opt := collect()
		return eng, d, Attach(d.Net, opt)
	}
	xp := func(d *topology.Dumbbell) {
		for i := range d.Senders {
			core.Dial(transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 50*unit.KB, 0), core.Config{})
		}
	}

	t.Run("healthy", func(t *testing.T) {
		eng, d, c := dumbbell()
		xp(d)
		eng.Run()
		c.Finish()
		s := c.Stats()
		if s.Events == 0 || s.Ports != len(d.Net.AllPorts()) || s.Exempt != 0 ||
			s.Networks != 1 || s.Voided != 0 || s.Displaced != 0 {
			t.Errorf("stats of a healthy ExpressPass run: %+v", s)
		}
	})

	t.Run("every port exempt", func(t *testing.T) {
		eng, d, c := dumbbell()
		for i := range d.Senders {
			f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 50*unit.KB, 0)
			transport.NewConn(f, dctcp.New(), 0)
		}
		eng.Run()
		c.Finish()
		if s := c.Stats(); s.Ports == 0 || s.Exempt != s.Ports {
			t.Errorf("a DCTCP-only run left ports unexempted: %+v", s)
		}
	})

	t.Run("voided", func(t *testing.T) {
		eng, d, c := dumbbell()
		xp(d)
		eng.RunFor(100 * sim.Microsecond)
		d.Net.BuildRoutes() // mid-run
		eng.Run()
		c.Finish()
		if s := c.Stats(); s.Voided != 1 {
			t.Errorf("mid-run route rebuild not counted as voiding: %+v", s)
		}
	})

	t.Run("displaced", func(t *testing.T) {
		eng, d, c := dumbbell()
		xp(d)
		eng.RunFor(100 * sim.Microsecond)
		d.Net.SetTracer(obs.NewTracer(obs.NewRingSink(16)))
		eng.Run()
		c.Finish()
		if s := c.Stats(); s.Displaced != 1 {
			t.Errorf("checker displaced by a later SetTracer not counted: %+v", s)
		}
	})

	t.Run("armed totals", func(t *testing.T) {
		set := NewSet(Options{})
		set.Finish() // no network was built
		if s := set.Stats(); s != (Stats{}) {
			t.Errorf("totals with no network built: %+v", s)
		}
		for i := 0; i < 2; i++ {
			eng := sim.New(uint64(3 + i))
			eng.Wiring = &netem.Wiring{Check: set.Attach}
			d := topology.NewDumbbell(eng, 2, topology.Config{})
			xp(d)
			eng.Run()
		}
		set.Finish()
		s := set.Stats()
		want := Stats{Events: s.Events, Ports: 2 * 10, Networks: 2}
		if s != want || s.Events == 0 {
			t.Errorf("totals over two armed networks: %+v, want %+v", s, want)
		}
		if got := s.String(); got != fmt.Sprintf("%d events checked on 20 ports (0 exempt) in 2 networks (0 voided)", s.Events) {
			t.Errorf("summary line: %q", got)
		}
	})
}
