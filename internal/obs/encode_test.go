package obs

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"expresspass/internal/sim"
)

// The number formatters' spec is strconv: whatever
// AppendFloat(x, 'g', -1, 64) prints, appendMicros and appendValue must
// print, and appendUint prints what AppendUint does. The tables below sit on every branch boundary of the integer
// paths and seed the fuzz targets (which run as plain tests in tier-1).

var edgeTimes = []sim.Time{
	0, 1, 9, 10, 99, 100, 101, 999999, // sub-µs: d.dde-05 below 100 ps, 0.000d from it
	sim.Microsecond, sim.Microsecond + 1, 1500 * sim.Nanosecond,
	999999999999,                                          // 999999.999999 µs, last fixed-notation instant
	sim.Second, sim.Second + 1, 1234560 * sim.Microsecond, // d.ddde+06 from 1 s
	1e15 - 1, 1e15, 1e15 + 1, // the ≤ 15-digit bound and the strconv fallback past it
	1 << 53, 1<<53 + 1, // float64(t) stops being exact
	-1, -sim.Microsecond, math.MinInt64, sim.Forever,
}

var edgeValues = []float64{
	0, math.Copysign(0, -1), 0.5, 1, 9, 10, 84, 1538, 999999, 1e6, 1e6 - 0.5, 1e6 + 1,
	-1, -0.5, 4.84, 0.0625, 1.0 / 3, 1 << 53, 1e21, 1e-7,
	math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64,
}

func checkMicros(t *testing.T, ps int64) {
	t.Helper()
	got := appendMicros(nil, sim.Time(ps))
	want := strconv.AppendFloat(nil, sim.Time(ps).Micros(), 'g', -1, 64)
	if string(got) != string(want) {
		t.Errorf("appendMicros(%d ps) = %q, strconv prints %q", ps, got, want)
	}
}

func checkValue(t *testing.T, v float64) {
	t.Helper()
	got := appendValue(nil, v)
	want := strconv.AppendFloat(nil, v, 'g', -1, 64)
	if string(got) != string(want) {
		t.Errorf("appendValue(%v [%#x]) = %q, strconv prints %q", v, math.Float64bits(v), got, want)
	}
}

func FuzzAppendMicros(f *testing.F) {
	for _, ts := range edgeTimes {
		f.Add(int64(ts))
	}
	f.Fuzz(func(t *testing.T, ps int64) { checkMicros(t, ps) })
}

func FuzzAppendValue(f *testing.F) {
	for _, v := range edgeValues {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { checkValue(t, math.Float64frombits(bits)) })
}

// TestAppendMicrosSweep walks every digit-count boundary (10^k-1, 10^k,
// 10^k+1) and a seeded random sample of each decade, so a mistake in
// point placement or zero trimming at some magnitude cannot hide
// between the hand-picked edges.
func TestAppendMicrosSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k, p := 0, int64(1); k <= 17; k, p = k+1, p*10 {
		for _, ps := range []int64{p - 1, p, p + 1, 5 * p, p + p/5} {
			checkMicros(t, ps)
		}
		for i := 0; i < 20000; i++ {
			checkMicros(t, p+rng.Int63n(9*p))
		}
	}
}

// TestAppendMicrosEveryFraction covers every sub-microsecond remainder
// of the fixed-notation path, the one swarDigits(ps·100) formats.
func TestAppendMicrosEveryFraction(t *testing.T) {
	for ps := int64(0); ps < 1e6; ps++ {
		checkMicros(t, 12*int64(sim.Microsecond)+ps)
	}
}

// TestAppendValueSweep does the same for the value path: whole numbers
// around the 10^6 bound, and random bit patterns (mostly fallbacks).
func TestAppendValueSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		checkValue(t, float64(rng.Int63n(2_000_000)))
		checkValue(t, float64(rng.Int63n(2_000_000))/8)
		checkValue(t, math.Float64frombits(rng.Uint64()))
	}
}

// TestSWARLaneIdentities proves swarDigits' two lane divisions exact on
// their whole domains: every 4-digit lane x and every 2-digit lane y.
func TestSWARLaneIdentities(t *testing.T) {
	for x := uint64(0); x < 10000; x++ {
		if got := x * 10486 >> 20; got != x/100 {
			t.Fatalf("%d·10486>>20 = %d, want %d", x, got, x/100)
		}
	}
	for y := uint64(0); y < 100; y++ {
		if got := y * 103 >> 10; got != y/10 {
			t.Fatalf("%d·103>>10 = %d, want %d", y, got, y/10)
		}
	}
}

// uintEdges are appendUint's branch and width boundaries: every
// 10^k-1, 10^k and 10^k+1 up to 10^19, the register's 10^8 ± 1 bound
// among them, and the top of the range.
func uintEdges() []uint64 {
	edges := []uint64{math.MaxUint64 - 1, math.MaxUint64}
	for k, p := 0, uint64(1); k <= 19; k, p = k+1, p*10 {
		edges = append(edges, p-1, p, p+1)
	}
	return edges
}

func checkUint(t *testing.T, u uint64) {
	t.Helper()
	got := appendUint([]byte("x"), u)
	if want := strconv.AppendUint([]byte("x"), u, 10); string(got) != string(want) {
		t.Fatalf("appendUint(%d) = %q, strconv prints %q", u, got, want)
	}
}

// TestAppendUintExhaustive covers every u in [0, 2·10^6) — each digit
// count up to seven, each lane pattern of the low six digits — and the
// edges; the fuzz target starts from the same edges.
func TestAppendUintExhaustive(t *testing.T) {
	for u := uint64(0); u < 2_000_000; u++ {
		checkUint(t, u)
	}
	for _, u := range uintEdges() {
		checkUint(t, u)
	}
}

func FuzzAppendUint(f *testing.F) {
	for _, u := range uintEdges() {
		f.Add(u)
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkUint(t, u)
		checkUint(t, u%swarBelow)
		if got, want := appendInt(nil, int64(u)), strconv.AppendInt(nil, int64(u), 10); string(got) != string(want) {
			t.Fatalf("appendInt(%d) = %q, strconv prints %q", int64(u), got, want)
		}
	})
}

// TestMaxLineBoundsWidestLine: the widest line each encoder can print —
// strconv's widest float in every float field, the widest int64 in
// every integer field, the longest type name, the CSV header — fits in
// maxLine besides its names, with room for the widest fixed-width store
// (a frag's) to write its scratch bytes past the end.
func TestMaxLineBoundsWidestLine(t *testing.T) {
	const widest = -2.2250738585072014e-308
	ev := Event{T: math.MinInt64 + 1, Type: EvCreditQDepth, Scope: "s",
		Flow: math.MinInt64, Seq: math.MinInt64, Bytes: math.MinInt64, Val: widest, Aux: widest, Aux2: widest}
	for ty := range EventType(numEventTypes) {
		if len(ty.String()) > len(ev.Type.String()) {
			t.Fatalf("%v is longer than %v", ty, ev.Type)
		}
	}
	var jb, cb, mb bytes.Buffer
	js, cs := NewJSONLSink(&jb), NewCSVSink(&cb)
	js.Record(ev)
	cs.Record(ev)
	rt := NewRuntime(Config{MetricsOut: &mb})
	rt.WriteRow(ev.T, "s", "m", widest)
	for _, c := range []io.Closer{js, cs, rt} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Each line's names: the scope, and for a metrics row the metric too.
	for name, n := range map[string]int{"jsonl": jb.Len() - 1, "csv": cb.Len() - 1, "metrics": mb.Len() - 2} {
		if n+fragWidth > maxLine {
			t.Errorf("%s: widest line is %d bytes besides its names, +%d of scratch exceeds maxLine %d", name, n, fragWidth, maxLine)
		}
	}
}

// TestMicrosMemo checks the last-timestamp memo never serves stale
// digits, including across the zero value it starts from, and holds
// every edge timestamp's digits whole.
func TestMicrosMemo(t *testing.T) {
	lw := newLineWriter(nil)
	for _, ts := range append([]sim.Time{0, 0, 5, 5, 0, -1, -1, sim.Second, 0}, edgeTimes...) {
		got := lw.micros(nil, ts)
		if want := appendMicros(nil, ts); string(got) != string(want) {
			t.Errorf("memoised micros(%d) = %q, want %q", ts, got, want)
		}
	}
}
