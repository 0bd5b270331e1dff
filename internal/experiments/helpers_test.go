package experiments

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/dctcp"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// convCase is one known answer of the convergence rule: every flow
// within ±30% of fair for two consecutive bins, read at the end of the
// first bin of that run.
type convCase struct {
	name  string
	fair  float64
	rates [][]float64 // rates[b][i]: flow i's Gbps in bin b
	want  sim.Duration
	ok    bool
}

const convBin = 100 * sim.Microsecond

func checkConvergence(t *testing.T, cases []convCase) {
	t.Helper()
	for _, c := range cases {
		if at, ok := convergence(c.rates, c.fair, convBin); at != c.want || ok != c.ok {
			t.Errorf("%s: convergence = %v, %v; want %v, %v", c.name, at, ok, c.want, c.ok)
		}
	}
}

// TestConvergedDetector holds the rule on flows that start apart and
// meet at fair, and on flows that never meet.
func TestConvergedDetector(t *testing.T) {
	checkConvergence(t, []convCase{
		{"settles in bin 2", 5, [][]float64{{1, 9}, {3, 7}, {4.9, 5.1}, {5.0, 5.0}, {5.1, 4.9}, {5.0, 5.0}}, 3 * convBin, true},
		{"never meets", 5, [][]float64{{1, 9}, {2, 8}, {1, 9}, {2, 8}}, 0, false},
		{"no bins", 5, nil, 0, false},
	})
}

// TestEqualizedDetector holds the rule on an uneven split that is still
// inside the band, and on flows that are equal only because both idle.
func TestEqualizedDetector(t *testing.T) {
	checkConvergence(t, []convCase{
		{"uneven but in band", 4, [][]float64{{9, 0}, {7, 1}, {5, 4}, {5, 5}, {5, 5}}, 3 * convBin, true},
		{"equal because both are idle", 4, [][]float64{{0.1, 0.1}, {0.1, 0.1}}, 0, false},
	})
}

// TestConvergence holds the rule to the known answers on where a run
// starts.
func TestConvergence(t *testing.T) {
	checkConvergence(t, []convCase{
		// A newcomer joins a flow holding the whole link (fair 4.5, band
		// 3.15–5.85): it enters the band in bin 2, overshoots in bin 3
		// (6.0), and both stay inside from bin 4, so the run starts there.
		{"two-flow join", 4.5, [][]float64{{9, 0.5}, {7, 2}, {5.5, 3.5}, {3, 6}, {4.6, 4.4}, {4.5, 4.5}}, 5 * convBin, true},
		{"holds from the first bin", 5, [][]float64{{5, 5}, {5, 5}}, convBin, true},
		{"one bin in band is not a run", 5, [][]float64{{1, 9}, {5, 5}, {1, 9}, {5, 5}}, 0, false},
		{"all idle", 4, [][]float64{{0, 0}, {0, 0}, {0, 0}}, 0, false},
	})
}

// TestConvergenceTightensMonotonically records fig2's DCTCP arm once and
// reads it at tolerances from ±90% down to ±5%: the reading may only
// grow as the band narrows. Tolerance tol is the rule's ±30% band
// applied to rates whose distance from fair is stretched by 30%/tol, so
// no threshold is passed and nothing is simulated per threshold.
func TestConvergenceTightensMonotonically(t *testing.T) {
	t.Parallel()
	p := Params{Scale: 0.12, Seed: 42}.withDefaults()
	arm := fig2Arms(p)[2]
	if arm.name != ProtoDCTCP {
		t.Fatalf("fig2's third arm is %s, want dctcp", arm.name)
	}
	rates := fig2Rates(sim.New(p.Seed), p, arm)
	fair := fairShare(arm.name, 10*unit.Gbps)
	reading := func(tol float64) sim.Duration {
		stretched := make([][]float64, len(rates))
		for b, row := range rates {
			for _, r := range row {
				stretched[b] = append(stretched[b], fair+(r-fair)*convTol/tol)
			}
		}
		if at, ok := convergence(stretched, fair, arm.bin); ok {
			return at
		}
		return sim.Forever
	}
	tols := []float64{0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05}
	prev := reading(tols[0])
	for _, tol := range tols[1:] {
		at := reading(tol)
		if at < prev {
			t.Errorf("±%.0f%% reads %v, earlier than the looser band's %v", tol*100, at, prev)
		}
		prev = at
	}
	if first, last := reading(tols[0]), reading(tols[len(tols)-1]); first == last {
		t.Errorf("±90%% and ±5%% both read %v: the sweep moves nothing", first)
	}
}

// TestDeliveredWindows holds the goodput reading: it advances the engine
// by exactly the windows, and each flow's bytes over them are its
// BytesDelivered change.
func TestDeliveredWindows(t *testing.T) {
	eng := sim.New(1)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	env := &Env{Eng: eng, Net: d.Net, BaseRTT: 30 * sim.Microsecond}
	var flows []*transport.Flow
	for i := 0; i < 2; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
		env.Dial(ProtoExpressPass, f)
		flows = append(flows, f)
	}
	eng.RunUntil(sim.Millisecond)
	start := eng.Now()
	before := []unit.Bytes{flows[0].BytesDelivered, flows[1].BytesDelivered}
	windows := []sim.Duration{sim.Millisecond, 500 * sim.Microsecond, 2 * sim.Millisecond, 1500 * sim.Microsecond}
	got := delivered(eng, flows, windows...)
	if len(got) != len(windows) || len(got[0]) != len(flows) {
		t.Fatalf("reading shape: %dx%d, want %dx%d", len(got), len(got[0]), len(windows), len(flows))
	}
	if want := start + 5*sim.Millisecond; eng.Now() != want {
		t.Errorf("engine at %v, want %v", eng.Now(), want)
	}
	for i, f := range flows {
		var sum unit.Bytes
		for _, w := range got {
			sum += w[i]
		}
		if change := f.BytesDelivered - before[i]; sum != change {
			t.Errorf("flow %d: windows sum to %d bytes, BytesDelivered moved %d", i, sum, change)
		}
	}
	// Two flows share the link, so the last window's total runs near the
	// payload ceiling.
	last := len(windows) - 1
	if g := gbps(total(got[last]), windows[last]); g < 8 {
		t.Errorf("last window %.2f Gbps, want ≈9", g)
	}
}

func TestMaxGoodput(t *testing.T) {
	got := maxGoodputGbps(10 * unit.Gbps)
	// 10G × (1−creditRatio) × payload/frame ≈ 9.0.
	if got < 8.8 || got > 9.1 {
		t.Errorf("maxGoodput(10G) = %.3f", got)
	}
}

// TestDumbbellBuilder holds dumbbell to its base RTT, six hops of
// rtt/6, and to installing a protocol's features after the link rate:
// DCTCP's marking threshold is the one recommended for the link it marks.
func TestDumbbellBuilder(t *testing.T) {
	rtt := 120 * sim.Microsecond
	d, env := dumbbell(sim.New(1), ProtoExpressPass, 1, 10*unit.Gbps, rtt, topology.Config{}, core.Config{})
	if got := d.Bottleneck.Config().Delay; got != rtt/6 {
		t.Errorf("link delay %v, want %v", got, rtt/6)
	}
	if env.BaseRTT != rtt || env.Net != d.Net {
		t.Errorf("env base RTT %v on %p, want %v on %p", env.BaseRTT, env.Net, rtt, d.Net)
	}
	for _, rate := range []unit.Rate{10 * unit.Gbps, 100 * unit.Gbps} {
		d, _ := dumbbell(sim.New(1), ProtoDCTCP, 2, rate, rtt, topology.Config{}, core.Config{})
		if got, want := d.Bottleneck.Config().ECNThreshold, dctcp.RecommendedK(rate); got != want {
			t.Errorf("DCTCP at %v: bottleneck ECN threshold %v, want %v", rate, got, want)
		}
	}
}

func TestEvalProtosOrder(t *testing.T) {
	ps := EvalProtos()
	if len(ps) != 5 || ps[0] != ProtoExpressPass {
		t.Errorf("eval protocols: %v", ps)
	}
}

func TestGbpsHelper(t *testing.T) {
	if got := gbps(1250000, sim.Millisecond); got < 9.99 || got > 10.01 {
		t.Errorf("gbps = %v, want 10", got)
	}
	if gbps(100, 0) != 0 {
		t.Error("zero duration must be 0")
	}
}

// result runs experiment id as Run does, without printing, and returns
// its Result.
func result(t *testing.T, id string, p Params) Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	res, err := e.Run(p.withDefaults())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res
}

// tables returns the tables of r, in print order.
func (r Result) tables() []*Table {
	var out []*Table
	for _, b := range r {
		if tbl, ok := b.(*Table); ok {
			out = append(out, tbl)
		}
	}
	return out
}

// records returns the table's rows as header name → cell value.
func (tbl *Table) records() []map[string]any {
	out := make([]map[string]any, len(tbl.Rows))
	for i, row := range tbl.Rows {
		out[i] = map[string]any{}
		for j, v := range row {
			out[i][tbl.Header[j]] = v
		}
	}
	return out
}

// value reads the number a cell holds: a float64, an integer, or the
// first value of a Text (81.0 where the table prints 81.0%).
func value(t *testing.T, cell any) float64 {
	t.Helper()
	switch x := cell.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	case Text:
		if len(x.V) > 0 {
			return value(t, x.V[0])
		}
	}
	t.Fatalf("cell %v (%T) holds no number", cell, cell)
	return 0
}
