package faults

import (
	"errors"
	"strings"
	"testing"

	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/unit"
)

func TestParseSpec(t *testing.T) {
	plan, err := ParseSpec("flap@10ms+2ms; loss:credit:0.05@20ms+5ms; loss:both:0.01:swL->swR@1s+100us; stall:s0@30ms+1ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Directives) != 4 {
		t.Fatalf("parsed %d directives, want 4", len(plan.Directives))
	}
	want := []Directive{
		{Kind: "flap", At: 10 * sim.Millisecond, Dur: 2 * sim.Millisecond},
		{Kind: "loss", Class: "credit", Rate: 0.05,
			At: 20 * sim.Millisecond, Dur: 5 * sim.Millisecond},
		{Kind: "loss", Class: "both", Rate: 0.01,
			Target: "swL->swR", At: sim.Time(sim.Second), Dur: 100 * sim.Microsecond},
		{Kind: "stall", Target: "s0", At: 30 * sim.Millisecond, Dur: sim.Millisecond},
	}
	for i, w := range want {
		if plan.Directives[i] != w {
			t.Errorf("directive %d = %+v, want %+v", i, plan.Directives[i], w)
		}
	}
}

func TestParseSpecImpairments(t *testing.T) {
	plan, err := ParseSpec(
		"gemodel:credit:0.02:0.3@10ms+40ms;" +
			"gemodel:data:0.1:0.5:h=0.2:k=0.9:swL->swR@1ms+1ms;" +
			"state:both:0.05:p31=0.4:p23=0.8:p32=0.1:p14=0.01@2ms+2ms;" +
			"loss:data:0.02:corr=0.5@3ms+3ms;" +
			"dup:credit:0.01@4ms+4ms;" +
			"corrupt:data:0.005:swR->swL@5ms+5ms;" +
			"reorder:0.1:20us@6ms+6ms;" +
			"jitter:delay:pareto:5us@7ms+7ms;" +
			"jitter:rate:normal:0.25@8ms+8ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []Directive{
		{Kind: "gemodel", Class: "credit", P: 0.02, R: 0.3, K: 1,
			At: 10 * sim.Millisecond, Dur: 40 * sim.Millisecond},
		{Kind: "gemodel", Class: "data", P: 0.1, R: 0.5, H: 0.2, K: 0.9,
			Target: "swL->swR", At: sim.Millisecond, Dur: sim.Millisecond},
		{Kind: "state", Class: "both", P13: 0.05, P31: 0.4, P23: 0.8, P32: 0.1, P14: 0.01,
			At: 2 * sim.Millisecond, Dur: 2 * sim.Millisecond},
		{Kind: "loss", Class: "data", Rate: 0.02, Corr: 0.5,
			At: 3 * sim.Millisecond, Dur: 3 * sim.Millisecond},
		{Kind: "dup", Class: "credit", Rate: 0.01,
			At: 4 * sim.Millisecond, Dur: 4 * sim.Millisecond},
		{Kind: "corrupt", Class: "data", Rate: 0.005, Target: "swR->swL",
			At: 5 * sim.Millisecond, Dur: 5 * sim.Millisecond},
		{Kind: "reorder", Rate: 0.1, MaxExtra: 20 * sim.Microsecond,
			At: 6 * sim.Millisecond, Dur: 6 * sim.Millisecond},
		{Kind: "jitter", Axis: "delay", Dist: "pareto", Mean: float64(5 * sim.Microsecond),
			At: 7 * sim.Millisecond, Dur: 7 * sim.Millisecond},
		{Kind: "jitter", Axis: "rate", Dist: "normal", Mean: 0.25,
			At: 8 * sim.Millisecond, Dur: 8 * sim.Millisecond},
	}
	if len(plan.Directives) != len(want) {
		t.Fatalf("parsed %d directives, want %d", len(plan.Directives), len(want))
	}
	for i, w := range want {
		if plan.Directives[i] != w {
			t.Errorf("directive %d = %+v, want %+v", i, plan.Directives[i], w)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	plan, err := ParseSpec("state:credit:0.1@1ms+1ms")
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Directives[0]
	// tc netem defaults: p31 = 1−p13, p23 = 1, p32 = 0, p14 = 0.
	if d.P31 != 0.9 || d.P23 != 1 || d.P32 != 0 || d.P14 != 0 {
		t.Errorf("state defaults = %+v, want p31=0.9 p23=1 p32=0 p14=0", d)
	}
	plan, err = ParseSpec("gemodel:credit:0.1:0.5@1ms+1ms")
	if err != nil {
		t.Fatal(err)
	}
	if d := plan.Directives[0]; d.H != 0 || d.K != 1 {
		t.Errorf("gemodel defaults = %+v, want h=0 k=1", d)
	}
}

func TestParseSpecSchedule(t *testing.T) {
	plan, err := ParseSpec("every:20ms:jitter=1ms:count=3:duty=0.1:roll{ stall@0ms+2ms; flap@5ms+1ms }@10ms+80ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Schedules) != 1 || len(plan.Directives) != 0 {
		t.Fatalf("parsed %d schedules / %d directives, want 1 / 0",
			len(plan.Schedules), len(plan.Directives))
	}
	sc := plan.Schedules[0]
	if sc.Period != 20*sim.Millisecond || sc.Jitter != sim.Millisecond ||
		sc.Count != 3 || sc.Duty != 0.1 || !sc.Roll ||
		sc.At != 10*sim.Millisecond || sc.Dur != 80*sim.Millisecond {
		t.Errorf("schedule = %+v", sc)
	}
	if len(sc.Inner) != 2 || sc.Inner[0].Kind != "stall" || sc.Inner[1].Kind != "flap" {
		t.Errorf("inner directives = %+v", sc.Inner)
	}
	if sc.Inner[1].At != 5*sim.Millisecond {
		t.Errorf("inner offset = %v, want 5ms", sc.Inner[1].At)
	}

	// A schedule composes with plain directives in one spec, the ';'
	// inside the braces staying with its clause.
	plan, err = ParseSpec("flap@1ms+1ms; every:10ms{ loss:credit:0.1@0ms+1ms; stall@2ms+1ms }@5ms+50ms; dup:data:0.01@2ms+2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Directives) != 2 || len(plan.Schedules) != 1 || len(plan.Schedules[0].Inner) != 2 {
		t.Errorf("mixed spec: %d directives, %d schedules", len(plan.Directives), len(plan.Schedules))
	}
}

// invalidSpecs must each be rejected with a *ConfigError; they also seed
// FuzzParseFaultSpec.
var invalidSpecs = []string{
	"",
	"flap",                                 // no timing
	"flap@10ms",                            // no duration
	"flap@10ms+0ms",                        // zero duration
	"flap@10+2ms",                          // missing unit
	"melt@10ms+2ms",                        // unknown kind
	"loss@10ms+2ms",                        // loss without class/rate
	"loss:credit:1.5@1ms+1ms",              // rate out of range
	"loss:acks:0.1@1ms+1ms",                // unknown class
	"stall:a:b@1ms+1ms",                    // too many args
	"loss:credit:0.1:corr=2@1ms+1ms",       // correlation out of range
	"gemodel:credit:0.1@1ms+1ms",           // missing r
	"gemodel:credit:0:0.5@1ms+1ms",         // p must be positive
	"gemodel:credit:0.1:0.5:q=1@1ms+1ms",   // unknown option
	"state:credit:0.6:p14=0.5@1ms+1ms",     // p13+p14 > 1
	"dup:data@1ms+1ms",                     // missing rate
	"corrupt:frames:0.1@1ms+1ms",           // unknown class
	"reorder:0.1:xyz@1ms+1ms",              // bad maxdelay
	"jitter:delay:zipf:1us@1ms+1ms",        // unknown distribution
	"jitter:sideways:uniform:1us@1ms+1ms",  // unknown axis
	"jitter:rate:uniform:-0.5@1ms+1ms",     // negative mean
	"every:10ms{ flap@0ms+1ms }",           // schedule without timing
	"every:10ms{}@1ms+10ms",                // empty body
	"every{ flap@0ms+1ms }@1ms+10ms",       // missing period
	"every:0ms{ flap@0ms+1ms }@1ms+10ms",   // zero period
	"every:10ms:duty=2{ flap@0+1ms }@1+1s", // duty out of range
	"every:10ms{ flap@0ms+1ms @1ms+10ms",   // unterminated brace
	"every:10ms{ every:1ms{ flap@0ms+1ms }@0ms+5ms }@1ms+10ms", // nesting
	"flap@10000000s+1ms",                      // start past the clock's range
	"flap@5000000s+5000000s",                  // window end past the clock's range
	"flap@1ms+infs",                           // infinite duration
	"flap@NaNms+1ms",                          // NaN start
	"every:1s{ flap@0s+300000s }@9000000s+1s", // last inner window past the clock
	"every:10ns{ stall@0ns+1ns }@0ms+10ms",    // 1,000,000 occurrences
	"every:1ns{ stall@0ns+1ns }@0ms+1s",       // 10^9 occurrences
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range invalidSpecs {
		_, err := ParseSpec(s)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", s)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("ParseSpec(%q) error %T is not *ConfigError", s, err)
		}
	}
}

func TestConfigErrorPosition(t *testing.T) {
	spec := "flap@1ms+1ms; melt@10ms+2ms"
	_, err := ParseSpec(spec)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *ConfigError", err)
	}
	if ce.Clause != "melt@10ms+2ms" {
		t.Errorf("Clause = %q, want the offending clause", ce.Clause)
	}
	if want := strings.Index(spec, "melt"); ce.Pos != want {
		t.Errorf("Pos = %d, want %d", ce.Pos, want)
	}
	if ce.Spec != spec {
		t.Errorf("Spec = %q, want the full input", ce.Spec)
	}
	if !strings.Contains(ce.Error(), "melt") || !strings.Contains(ce.Error(), "14") {
		t.Errorf("Error() = %q should name the clause and offset", ce.Error())
	}
}

func TestPlanApplyResolution(t *testing.T) {
	eng := sim.New(1)
	d := topology.NewDumbbell(eng, 1, topology.Config{LinkRate: 10 * unit.Gbps})

	plan, err := ParseSpec("flap@1ms+1ms; flap:swR->swL@2ms+1ms; stall@3ms+1ms; stall:r0@4ms+1ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}

	for _, spec := range []string{
		"flap:nosuch->port@1ms+1ms",
		"stall:ghost@1ms+1ms",
		"gemodel:credit:0.1:0.5:nosuch->port@1ms+1ms",
		"every:10ms{ stall:ghost@0ms+1ms }@1ms+20ms",
	} {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(d.Net, d.Bottleneck); err == nil {
			t.Errorf("Apply(%q) resolved a nonexistent target", spec)
		}
	}

	// The scheduled flap must actually fire: while the bottleneck is
	// down, routing has no path across it.
	routed := func() bool { return d.Net.TracePorts(d.Senders[0].ID(), d.Receivers[0].ID(), 1) != nil }
	eng.RunUntil(1500 * sim.Microsecond)
	if routed() {
		t.Error("default-target flap did not take the bottleneck down")
	}
	eng.RunUntil(10 * sim.Millisecond)
	if !routed() {
		t.Error("flap did not restore the bottleneck")
	}
}

func TestScheduleExpansion(t *testing.T) {
	eng := sim.New(7)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})

	// count=3 stalls, duty 0.1 ⇒ 2ms each, rolling across hosts.
	plan, err := ParseSpec("every:20ms:count=3:duty=0.1:roll{ stall@0ms+1ms }@10ms+100ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(d.Net, d.Bottleneck); err != nil {
		t.Fatal(err)
	}
	hosts := d.Net.Hosts()
	// Occurrence 0 at 10ms stalls hosts[0]; occurrence 1 at 30ms stalls
	// hosts[1]; occurrence 2 at 50ms wraps back per i % len(hosts).
	eng.RunUntil(11 * sim.Millisecond)
	if su := hosts[0].CreditStallUntil(); su != sim.Time(10*sim.Millisecond)+sim.Time(2*sim.Millisecond) {
		t.Errorf("occurrence 0 stallUntil = %v, want 12ms", su)
	}
	eng.RunUntil(31 * sim.Millisecond)
	if su := hosts[1].CreditStallUntil(); su != sim.Time(30*sim.Millisecond)+sim.Time(2*sim.Millisecond) {
		t.Errorf("occurrence 1 stallUntil = %v, want 32ms", su)
	}

	// The envelope truncates occurrences: 5 periods fit but count is
	// unbounded, so exactly floor(40/20)+1 within [10ms, 50ms).
	plan2, err := ParseSpec("every:20ms{ stall:s0@0ms+1ms }@10ms+40ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Schedules) != 1 {
		t.Fatal("schedule missing")
	}
}
