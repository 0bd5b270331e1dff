package faults

import (
	"reflect"
	"strings"
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// evCountSink tallies recorded events by type.
type evCountSink struct{ starts, ends []obs.Event }

func (s *evCountSink) Record(ev obs.Event) {
	switch ev.Type {
	case obs.EvFaultStart:
		s.starts = append(s.starts, ev)
	case obs.EvFaultEnd:
		s.ends = append(s.ends, ev)
	}
}
func (s *evCountSink) Close() error { return nil }

// TestPlanFullImpairmentTimeline drives every impairment kind —
// parsed from one spec string — through a live dumbbell: each window
// must emit its EvFaultStart/EvFaultEnd pair, and each destructive
// impairment must leave its mark in the network's fault accounting.
func TestPlanFullImpairmentTimeline(t *testing.T) {
	eng := sim.New(3)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	sink := &evCountSink{}
	d.Net.SetTracer(obs.NewTracer(sink, obs.EvFaultStart, obs.EvFaultEnd))

	var flows []*transport.Flow
	for i := 0; i < 2; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 2*unit.MB, 0)
		core.Dial(f, core.Config{})
		flows = append(flows, f)
	}

	// One window per kind, each on its own port so no clear tramples
	// another install, plus a rolling flap schedule at the tail.
	spec := strings.Join([]string{
		"gemodel:both:0.2:0.5@50us+2ms",
		"state:credit:0.2:swR->swL@50us+2ms",
		"loss:data:0.1:corr=0.5:s0->swL@50us+2ms",
		"dup:both:0.3:s1->swL@50us+2ms",
		"corrupt:data:0.2:swR->r0@50us+2ms",
		"reorder:0.3:10us:swR->r1@50us+2ms",
		"jitter:delay:uniform:2us:r0->swR@50us+2ms",
		"jitter:rate:normal:0.2:r1->swR@50us+2ms",
		"stall:s0@1ms+200us",
		"flap:swL->s0@2500us+100us",
		"every:500us:count=3:roll{ flap@0us+50us }@4ms+1500us",
	}, "; ")
	plan, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(8 * sim.Millisecond))

	// 10 one-shot windows plus 3 schedule occurrences.
	if len(sink.starts) != 13 || len(sink.ends) != 13 {
		t.Fatalf("fault events: %d starts / %d ends, want 13/13",
			len(sink.starts), len(sink.ends))
	}
	// The rolling flaps must rotate across distinct ports.
	rolled := map[string]bool{}
	for _, ev := range sink.starts {
		if strings.HasPrefix(ev.Scope, "flap:") {
			rolled[ev.Scope] = true
		}
	}
	if len(rolled) < 4 { // the one-shot flap plus 3 distinct rolled ports
		t.Fatalf("roll rotation hit only %d distinct flap scopes: %v", len(rolled), rolled)
	}
	st := d.Net.Stats()
	if st.FaultDrops == 0 {
		t.Fatal("loss chains destroyed nothing")
	}
	if st.FaultDups == 0 {
		t.Fatal("duplication cloned nothing")
	}
	if st.CorruptDrops == 0 {
		t.Fatal("corruption was never CRC-dropped at the destination")
	}
	if st.FaultReorders == 0 {
		t.Fatal("reordering held nothing back")
	}
}

// TestNetworkStatsSumsPorts runs a dumbbell under loss, duplication,
// corruption and reordering and reads the network once: every counter
// of Network.Stats is the sum of Port.Stats over AllPorts, except
// DataQueueMaxBytes, the largest port peak; and the CRC drops it counts
// on ingress ports are exactly the corrupt_drop events traced.
func TestNetworkStatsSumsPorts(t *testing.T) {
	eng := sim.New(5)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	ring := obs.NewRingSink(1 << 16)
	d.Net.SetTracer(obs.NewTracer(ring, obs.EvCorruptDrop))
	for i := 0; i < 2; i++ {
		core.Dial(transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 2*unit.MB, 0), core.Config{})
	}
	plan, err := ParseSpec("loss:data:0.1:corr=0.5:s0->swL@50us+2ms; dup:both:0.3:s1->swL@50us+2ms; " +
		"corrupt:data:0.2:swR->r0@50us+2ms; reorder:0.3:10us:swR->r1@50us+2ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(3 * sim.Millisecond))

	got := d.Net.Stats()
	if got.FaultDups == 0 || got.CorruptDrops == 0 || got.FaultReorders == 0 || got.FaultDrops == 0 {
		t.Fatalf("a fault left no mark: %+v", got)
	}
	if n := ring.CountType(obs.EvCorruptDrop); uint64(n) != got.CorruptDrops || ring.Total() != uint64(n) {
		t.Errorf("CorruptDrops = %d, traced corrupt_drop events = %d", got.CorruptDrops, n)
	}
	// Every field is a count, a byte total or a byte mean: sums of the
	// few thousand each port holds are exact in a float64.
	number := func(v reflect.Value) float64 {
		switch {
		case v.CanUint():
			return float64(v.Uint())
		case v.CanInt():
			return float64(v.Int())
		}
		return v.Float()
	}
	gv := reflect.ValueOf(got)
	for i := 0; i < gv.NumField(); i++ {
		var sum, peak float64
		for _, p := range d.Net.AllPorts() {
			v := number(reflect.ValueOf(p.Stats()).Field(i))
			sum += v
			peak = max(peak, v)
		}
		name, want := gv.Type().Field(i).Name, sum
		if name == "DataQueueMaxBytes" {
			want = peak
		}
		if g := number(gv.Field(i)); g != want {
			t.Errorf("Network.Stats().%s = %v, want %v", name, g, want)
		}
	}
}

func TestConfigErrorWithoutClause(t *testing.T) {
	e := &ConfigError{Spec: "", Msg: "empty spec"}
	if got := e.Error(); !strings.Contains(got, "empty spec") {
		t.Fatalf("Error() = %q, want the message included", got)
	}
}
