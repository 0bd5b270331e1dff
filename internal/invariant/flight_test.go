package invariant

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// TestFlightRecorderDumpsOnFirstViolation: with FlightOut set, the
// first violation dumps the last-N trace events (the offending event
// last) exactly once, and later violations do not dump again.
func TestFlightRecorderDumpsOnFirstViolation(t *testing.T) {
	net, _ := tinyNet(t)
	var dump bytes.Buffer
	vs, opt := collect()
	opt.FlightOut = &dump
	opt.FlightEvents = 4
	Attach(net, opt)
	tr := net.Tracer()
	// Benign lead-up traffic to fill (and wrap) the 4-event ring.
	for seq := int64(1); seq <= 6; seq++ {
		tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 1, Seq: seq, Bytes: 84})
		tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 1, Seq: seq, Bytes: 1460})
	}
	if dump.Len() != 0 {
		t.Fatalf("flight dumped before any violation:\n%s", dump.String())
	}
	// Uncredited send: fires credit-conservation and must trigger a dump
	// whose final line is this offending event.
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 9, Seq: 99, Bytes: 1460})
	if len(*vs) != 1 {
		t.Fatalf("expected 1 violation, got %v", *vs)
	}
	out := dump.String()
	if !strings.HasPrefix(out, "# invariant violation:") {
		t.Fatalf("dump missing context header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	jsonl := 0
	for _, l := range lines {
		if strings.HasPrefix(l, `{"t_us":`) {
			jsonl++
		}
	}
	if jsonl != 4 {
		t.Fatalf("dump holds %d events, want ring capacity 4:\n%s", jsonl, out)
	}
	if !strings.Contains(lines[len(lines)-1], `"flow":9`) {
		t.Fatalf("offending event is not the last dump entry:\n%s", out)
	}
	// A second violation must not dump again.
	before := dump.Len()
	tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 9, Seq: 100, Bytes: 1460})
	if len(*vs) != 2 {
		t.Fatalf("expected 2 violations, got %v", *vs)
	}
	if dump.Len() != before {
		t.Fatal("flight recorder dumped more than once per checker")
	}
}

// TestSetSerializesFlightDumps: the checkers of one Set, run from
// concurrent trials, share its FlightOut, and each dump lands whole.
func TestSetSerializesFlightDumps(t *testing.T) {
	t.Parallel()
	var dump bytes.Buffer
	set := NewSet(Options{FlightOut: &dump, FlightEvents: 2})
	const n = 8
	nets := make([]*netem.Network, n)
	for i := range nets {
		nets[i], _ = tinyNet(t)
		set.Attach(nets[i])
	}
	var wg sync.WaitGroup
	for _, net := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := net.Tracer()
			tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 1, Seq: 1, Bytes: 84})
			tr.Emit(obs.Event{Type: obs.EvDataSend, Scope: "h0", Flow: 9, Seq: 99, Bytes: 1460})
		}()
	}
	wg.Wait()
	if set.Count() != n {
		t.Fatalf("%d violations, want one per checker (%d)", set.Count(), n)
	}
	// Each dump is two '#' context lines, then the ring's two events.
	lines := strings.Split(strings.TrimSuffix(dump.String(), "\n"), "\n")
	if len(lines) != 4*n {
		t.Fatalf("%d dump lines, want %d:\n%s", len(lines), 4*n, dump.String())
	}
	for i := 0; i < len(lines); i += 4 {
		if !strings.HasPrefix(lines[i], "# invariant violation:") || !strings.HasPrefix(lines[i+1], "# last 2 ") ||
			!strings.Contains(lines[i+2], `"flow":1`) || !strings.Contains(lines[i+3], `"flow":9`) {
			t.Fatalf("dump %d is not whole:\n%s", i/4, dump.String())
		}
	}
}

// TestFlightRecorderOffByDefault: without FlightOut the checker
// allocates no ring at all (the zero-overhead contract).
func TestFlightRecorderOffByDefault(t *testing.T) {
	net, _ := tinyNet(t)
	_, opt := collect()
	c := Attach(net, opt)
	if c.flight != nil {
		t.Fatal("flight ring allocated without FlightOut")
	}
}

// TestFlightDumpOfAHeldFindingIsItsLeadUp: a queue-bound finding is held
// until Finish, but its flight dump is the ring as it stood when the
// finding was held — headed by that finding and ending at the data_enq
// that breached the bound — not the last events of the run.
func TestFlightDumpOfAHeldFindingIsItsLeadUp(t *testing.T) {
	t.Parallel()
	eng := sim.New(7)
	d := topology.NewDumbbell(eng, 4, topology.Config{})
	bound := unit.MaxFrame
	var dump bytes.Buffer
	c := Attach(d.Net, Options{QueueBound: bound, NoDelayBound: true, FlightOut: &dump, FlightEvents: 64})
	for i := range d.Senders {
		core.Dial(transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 100*unit.KB, 0), core.Config{})
	}
	eng.Run()
	found := c.Finish()
	if len(found) == 0 {
		t.Fatal("a one-frame bound on a shared bottleneck raised nothing")
	}
	header, events, _ := strings.Cut(dump.String(), "\n# last 64 trace events before the violation:\n")
	var v *Violation
	for i := range found {
		if header == "# invariant violation: "+found[i].String() {
			v = &found[i]
		}
	}
	if v == nil || v.Invariant != "queue-bound" {
		t.Fatalf("dump is headed %q, which names none of the findings %v", header, found)
	}
	lines := strings.Split(strings.TrimSuffix(events, "\n"), "\n")
	var last struct {
		T     float64 `json:"t_us"`
		Ev    string  `json:"ev"`
		Scope string  `json:"scope"`
		Val   float64 `json:"val"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(lines) != 64 {
		t.Fatalf("dump holds %d lines, the last unparsable (%v):\n%s", len(lines), err, dump.String())
	}
	if last.Ev != "data_enq" || last.Scope != v.Scope || last.T != v.Time.Micros() || last.Val <= float64(bound) {
		t.Fatalf("dump ends at %+v, not at the data_enq of %s (the run ended at %v)", last, v, eng.Now())
	}
}

// TestFlightDumpHeadsWithTheFirstHeldFinding: the dump is headed by the
// finding held first — here on a port that Finish reports second — and
// holds the ring as it stood then, while Finish still reports every
// finding as it is, in port order.
func TestFlightDumpHeadsWithTheFirstHeldFinding(t *testing.T) {
	t.Parallel()
	st := topology.NewStar(sim.New(1), 3, topology.Config{})
	var dump bytes.Buffer
	c := Attach(st.Net, Options{FlightOut: &dump, FlightEvents: 8})
	tr := st.Net.Tracer()
	tr.Emit(overBound(st.Net, "sw0->h2", 20))
	tr.Emit(overBound(st.Net, "h0->sw0", 30))
	got := c.Finish()
	if len(got) != 2 || got[0].Scope != "h0->sw0" || got[1].Scope != "sw0->h2" {
		t.Fatalf("Finish reported %v, want the h0->sw0 then the sw0->h2 finding", got)
	}
	want := "# invariant violation: " + got[1].String() + "\n# last 1 trace events before the violation:\n"
	if out := dump.String(); !strings.HasPrefix(out, want) || strings.Count(out, `"flow":20`) != 1 || strings.Contains(out, `"flow":30`) {
		t.Fatalf("dump is not the ring at the first held finding:\n%s", out)
	}
}

// TestFlightDumpOutlivesAnExemptedPort: the port that held the first
// finding proves exempt later and takes its lead-up with it, so the dump
// is the ring as it stood at the first finding of the next port to hold
// one — even though no finding is held after the exemption — and not the
// ring at the end of the run.
func TestFlightDumpOutlivesAnExemptedPort(t *testing.T) {
	t.Parallel()
	st := topology.NewStar(sim.New(1), 3, topology.Config{})
	var dump bytes.Buffer
	c := Attach(st.Net, Options{FlightOut: &dump, FlightEvents: 8})
	tr := st.Net.Tracer()
	tr.Emit(overBound(st.Net, "sw0->h2", 20))
	tr.Emit(overBound(st.Net, "h0->sw0", 30))
	tr.Emit(overBound(st.Net, "h0->sw0", 31))
	uncredited := overBound(st.Net, "sw0->h2", 40)
	uncredited.Aux = 0
	tr.Emit(uncredited)
	tr.Emit(obs.Event{Type: obs.EvCreditRecv, Scope: "h0", Flow: 50, Seq: 1, Bytes: 84})
	got := c.Finish()
	if len(got) != 2 || got[0].Scope != "h0->sw0" || got[0].Flow != 30 {
		t.Fatalf("Finish reported %v, want h0->sw0's two findings", got)
	}
	want := "# invariant violation: " + got[0].String() + "\n# last 2 trace events before the violation:\n"
	out := dump.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if !strings.HasPrefix(out, want) || !strings.Contains(lines[len(lines)-1], `"flow":30`) {
		t.Fatalf("dump is not the ring at h0->sw0's first finding:\n%s", out)
	}
	for _, later := range []string{`"flow":31`, `"flow":40`, `"flow":50`} {
		if strings.Contains(out, later) {
			t.Fatalf("dump holds %s, an event after the finding it is headed by:\n%s", later, out)
		}
	}
}
