package experiments

import (
	"testing"

	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func TestConvergedDetector(t *testing.T) {
	fair := 5.0
	series := [][]float64{
		{1, 3, 4.9, 5.0, 5.1, 5.0},
		{9, 7, 5.1, 5.0, 4.9, 5.0},
	}
	if got := converged(series, fair, 0.1, 3); got != 2 {
		t.Errorf("converged = %d, want 2", got)
	}
	if got := converged(series, fair, 0.001, 3); got != -1 {
		t.Errorf("tight tol should not converge: %d", got)
	}
	if got := converged(nil, fair, 0.1, 1); got != -1 {
		t.Errorf("empty series: %d", got)
	}
}

func TestEqualizedDetector(t *testing.T) {
	series := [][]float64{
		{9, 7, 5, 5, 5},
		{0, 1, 4, 5, 5},
	}
	// Ratio 0.7 holds from index 2 (4/5 = 0.8) with sum >= fair/2.
	if got := equalized(series, 8, 0.7, 2); got != 2 {
		t.Errorf("equalized = %d, want 2", got)
	}
	// A sum floor rejects "equal because both are idle".
	idle := [][]float64{{0.1, 0.1}, {0.1, 0.1}}
	if got := equalized(idle, 8, 0.7, 1); got != -1 {
		t.Errorf("idle flows must not count as equalized: %d", got)
	}
}

func TestBinRatesAdvancesEngine(t *testing.T) {
	eng := sim.New(1)
	d := topology.NewDumbbell(eng, 1, topology.Config{LinkRate: 10 * unit.Gbps})
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	env := &Env{Eng: eng, Net: d.Net, BaseRTT: 30 * sim.Microsecond}
	env.Dial(ProtoExpressPass, f)
	series := binRates(eng, []*transport.Flow{f}, sim.Millisecond, 5)
	if len(series) != 1 || len(series[0]) != 5 {
		t.Fatalf("series shape: %dx%d", len(series), len(series[0]))
	}
	if eng.Now() != 5*sim.Millisecond {
		t.Errorf("engine at %v, want 5ms", eng.Now())
	}
	// After ramp-up the flow should run near line rate.
	if series[0][4] < 8 {
		t.Errorf("last bin %.2f Gbps, want ≈9", series[0][4])
	}
}

func TestMaxGoodput(t *testing.T) {
	got := maxGoodputGbps(10 * unit.Gbps)
	// 10G × (1−creditRatio) × payload/frame ≈ 9.0.
	if got < 8.8 || got > 9.1 {
		t.Errorf("maxGoodput(10G) = %.3f", got)
	}
}

func TestRTTDumbbellBaseRTT(t *testing.T) {
	eng := sim.New(1)
	rtt := 120 * sim.Microsecond
	d := rttDumbbell(eng, 1, 10*unit.Gbps, rtt, topology.Config{})
	// Six propagation hops per round trip at rtt/6 each.
	if got := d.Bottleneck.PropDelay(); got != rtt/6 {
		t.Errorf("link delay %v, want %v", got, rtt/6)
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
