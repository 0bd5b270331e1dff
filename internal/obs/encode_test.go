package obs

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"expresspass/internal/sim"
)

// The number formatters' spec is strconv: whatever
// AppendFloat(x, 'g', -1, 64) prints, appendMicros and appendValue must
// print. The tables below sit on every branch boundary of the integer
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

// TestMicrosMemo checks the last-timestamp memo never serves stale
// digits, including across the zero value it starts from.
func TestMicrosMemo(t *testing.T) {
	lw := newLineWriter(nil)
	for _, ts := range []sim.Time{0, 0, 5, 5, 0, -1, -1, sim.Second, 0} {
		got := lw.micros(nil, ts)
		if want := appendMicros(nil, ts); string(got) != string(want) {
			t.Errorf("memoised micros(%d) = %q, want %q", ts, got, want)
		}
	}
}
