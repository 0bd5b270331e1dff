package obs_test

// Differential tests for the trace encoder: the sinks must print byte
// for byte what the strconv/fmt encoders they replaced printed. Those
// are kept here, verbatim in what they format, as the reference; with
// the golden schema file they are the format's specification.
//
// edgeEvents holds the sinks' zero runs (Flow = Seq = Bytes = 0 and
// Aux = Aux2 = 0 each printed as one constant) to their tests; each of
// these mutations fails TestSinksMatchReferenceOnEdges:
//
//   - `Flow|Seq|int64(Bytes) == 0` written `Flow+Seq+int64(Bytes) == 0`,
//     or with a field left out: a line with Flow = 1, Seq = -1, or with
//     only that field non-zero, prints zeros;
//   - `Float64bits(Aux)|Float64bits(Aux2) == 0` written `Aux+Aux2 == 0`
//     or `Aux == 0 && Aux2 == 0`: -0 prints "0", and 1, -1 print 0, 0.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/dctcp"
	"expresspass/internal/faults"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

func refJSONL(b []byte, ev obs.Event) []byte {
	float := func(v float64) { b = strconv.AppendFloat(b, v, 'g', -1, 64) }
	b = append(b, `{"t_us":`...)
	float(ev.T.Micros())
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, `","scope":"`...)
	b = append(b, ev.Scope...)
	b = append(b, `","flow":`...)
	b = strconv.AppendInt(b, ev.Flow, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, int64(ev.Bytes), 10)
	b = append(b, `,"val":`...)
	float(ev.Val)
	b = append(b, `,"aux":`...)
	float(ev.Aux)
	b = append(b, `,"aux2":`...)
	float(ev.Aux2)
	return append(b, "}\n"...)
}

func refCSV(b []byte, ev obs.Event) []byte {
	return fmt.Appendf(b, "%g,%s,%s,%d,%d,%d,%g,%g,%g\n",
		ev.T.Micros(), ev.Type, ev.Scope, ev.Flow, ev.Seq, int64(ev.Bytes),
		ev.Val, ev.Aux, ev.Aux2)
}

// formats pairs each file sink with the reference encoder of its format.
var formats = []struct {
	name   string
	sink   func(io.Writer) obs.Sink
	header string
	ref    func([]byte, obs.Event) []byte
}{
	{"jsonl", func(w io.Writer) obs.Sink { return obs.NewJSONLSink(w) }, "", refJSONL},
	{"csv", func(w io.Writer) obs.Sink { return obs.NewCSVSink(w) }, obs.CSVHeader, refCSV},
}

// diffSinks encodes events through both sinks and both references and
// reports the first line that differs.
func diffSinks(t *testing.T, events []obs.Event) {
	t.Helper()
	for _, f := range formats {
		var got bytes.Buffer
		sink := f.sink(&got)
		want := []byte(f.header)
		for _, ev := range events {
			sink.Record(ev)
			want = f.ref(want, ev)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gl, wl := bytes.SplitAfter(got.Bytes(), []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d:\n got %q\nwant %q", f.name, i, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, reference has %d", f.name, len(gl), len(wl))
	}
}

// captureShuffle runs an all-to-all shuffle on a star, once under
// ExpressPass and once under DCTCP, with a fault timeline applied, and
// returns every event both runs emitted: port and host scopes,
// "kind:target" fault scopes, whole-number payloads (queue bytes, packet
// counts) and fractional ones (credit rates, w, loss rates).
func captureShuffle(t testing.TB) []obs.Event {
	t.Helper()
	plan, err := faults.ParseSpec(
		"flap:sw0->h1@150us+40us; stall:h2@300us+60us; loss:both:0.02:h0->sw0@100us+400us; dup:data:0.05:sw0->h3@50us+500us")
	if err != nil {
		t.Fatal(err)
	}
	const hosts, rtt = 4, 50 * sim.Microsecond
	ring := obs.NewRingSink(1 << 20)
	for _, xp := range []bool{true, false} {
		eng := sim.New(7)
		cfg := topology.Config{LinkRate: 10 * unit.Gbps}
		if !xp {
			cfg.Port.ECNThreshold = dctcp.RecommendedK(cfg.LinkRate)
		}
		st := topology.NewStar(eng, hosts, cfg)
		st.Net.SetTracer(obs.NewTracer(ring))
		if err := plan.Apply(st.Net, st.DownPort(1)); err != nil {
			t.Fatal(err)
		}
		for _, s := range workload.Shuffle(eng.Rand().Fork(), workload.ShuffleConfig{
			Hosts: hosts, TasksPerHost: 1, Bytes: 60 * unit.KB}) {
			f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
			if xp {
				core.Dial(f, core.Config{BaseRTT: rtt})
			} else {
				transport.NewConn(f, dctcp.New(),
					0)
			}
		}
		eng.RunUntil(20 * sim.Millisecond)
	}
	if ring.Total() > 1<<20 {
		t.Fatalf("capture overflowed its ring: %d events", ring.Total())
	}
	return ring.Events()
}

func TestSinksMatchReferenceOnRealStream(t *testing.T) {
	events := captureShuffle(t)
	seen := map[obs.EventType]int{}
	fractional := 0
	for _, ev := range events {
		seen[ev.Type]++
		if ev.Val != math.Trunc(ev.Val) || ev.Aux != math.Trunc(ev.Aux) {
			fractional++
		}
	}
	for _, ty := range []obs.EventType{obs.EvCreditSent, obs.EvCreditDrop, obs.EvDataEnq,
		obs.EvQueueDepth, obs.EvFeedback, obs.EvFaultStart, obs.EvFaultEnd, obs.EvFaultDrop} {
		if seen[ty] == 0 {
			t.Errorf("captured stream has no %v events", ty)
		}
	}
	if len(events) < 10000 || fractional == 0 {
		t.Fatalf("captured %d events, %d with fractional payloads: not a representative stream",
			len(events), fractional)
	}
	diffSinks(t, events)

	// The JSONL footprint: this stream reads 109.4 bytes per event (a
	// fig18 trace read 116.8). More than 160 means the flat nine-key
	// schema grew or the encoder pads what it prints.
	var w countingWriter
	sink := obs.NewJSONLSink(&w)
	for _, ev := range events {
		sink.Record(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if per := float64(w.n) / float64(len(events)); per > 160 {
		t.Errorf("jsonl: %.1f bytes per event, budget 160", per)
	}
}

// edgeEvents crosses the timestamp and payload edge tables (every
// branch boundary of the integer fast paths, every strconv fallback).
func edgeEvents() []obs.Event {
	times := []sim.Time{0, 1, 99, 100, 999999, sim.Microsecond, 999999999999, sim.Second,
		1e15 - 1, 1e15, -1, -sim.Second, sim.Forever}
	vals := []float64{0, math.Copysign(0, -1), 0.5, 999999, 1e6, 1e6 - 0.5, -1, 1 << 53,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		1e-4, math.Nextafter(1e-4, 0), 9.9999e-05, (1e15 - 1) / 1e9, 999999.999999999}
	var evs []obs.Event
	for i, ts := range times {
		for j, v := range vals {
			evs = append(evs, obs.Event{
				T: ts, Type: obs.EventType((i + j) % 24), // includes out-of-range "unknown" types
				Scope: "sw0->h1", Flow: int64(i - 3), Seq: math.MaxInt64 - int64(j), Bytes: unit.Bytes(j * 1538),
				Val: v, Aux: vals[(j+1)%len(vals)], Aux2: vals[(j+5)%len(vals)],
			})
		}
	}
	evs = append(evs, obs.Event{Type: 255}, obs.Event{Flow: math.MinInt64, Seq: -1, Bytes: -1})
	// The zero runs: each integer field alone non-zero or negative, a
	// pair that sums to zero, and -0 or cancelling payloads in Aux/Aux2.
	negZero := math.Copysign(0, -1)
	for _, ids := range [][3]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {-1, 0, 0}, {0, -1, 0}, {0, 0, -1},
		{1, -1, 0}, {0, 1, -1}, {math.MinInt64, 0, 0}} {
		evs = append(evs, obs.Event{T: sim.Microsecond, Scope: "h0", Flow: ids[0], Seq: ids[1], Bytes: unit.Bytes(ids[2]), Val: 0.5})
	}
	for _, aux := range [][2]float64{{negZero, 0}, {0, negZero}, {negZero, negZero}, {1, -1}, {0, 1}, {1, 0}, {0, math.NaN()}} {
		evs = append(evs, obs.Event{T: sim.Microsecond, Scope: "h0", Val: 3, Aux: aux[0], Aux2: aux[1]})
	}
	return evs
}

func TestSinksMatchReferenceOnEdges(t *testing.T) { diffSinks(t, edgeEvents()) }

// TestFlightDumpMatchesReference: a flight dump — WriteJSONL of what a
// RingSink retained — is the same JSONL, line for line, as a trace of
// the retained events.
func TestFlightDumpMatchesReference(t *testing.T) {
	ring := obs.NewRingSink(64)
	var want []byte
	events := edgeEvents()
	for i, ev := range events {
		ring.Record(ev)
		if i >= len(events)-64 {
			want = refJSONL(want, ev)
		}
	}
	var got bytes.Buffer
	if err := obs.WriteJSONL(&got, ring.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flight dump differs from the reference encoding:\n got %q\nwant %q", got.Bytes(), want)
	}
}

// TestMetricsRowsMatchReference: the metrics CSV prints t_us and value
// as strconv's 'g' format does, over the same edge tables.
func TestMetricsRowsMatchReference(t *testing.T) {
	var got bytes.Buffer
	rt := obs.NewRuntime(obs.Config{MetricsOut: &got})
	want := []byte("t_us,scope,metric,value\n")
	for i, ev := range edgeEvents() {
		metric := "port/" + ev.Scope + "/m" + strconv.Itoa(i%3)
		rt.WriteRow(ev.T, "r0", metric, ev.Val)
		want = strconv.AppendFloat(want, ev.T.Micros(), 'g', -1, 64)
		want = append(want, ",r0,"+metric+","...)
		want = strconv.AppendFloat(want, ev.Val, 'g', -1, 64)
		want = append(want, '\n')
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("metrics CSV differs from the reference encoding:\n got %q\nwant %q", got.Bytes(), want)
	}
}

// randomEvents draws n events shaped like a trace (a clock that mostly
// advances by sub-microsecond steps and often stands still, small whole
// payloads) with a tail of arbitrary bit patterns in every numeric field.
func randomEvents(n int) []obs.Event {
	rng := rand.New(rand.NewSource(13))
	scopes := []string{"h0", "sw0->h3", "tor12->agg3", "flap:swL->swR", ""}
	value := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return rng.Float64() * 10
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return float64(rng.Int63n(1 << 40))
		}
		return float64(rng.Intn(400000))
	}
	evs := make([]obs.Event, n)
	var now sim.Time
	for i := range evs {
		switch rng.Intn(16) {
		case 0:
			now = sim.Time(rng.Uint64()) // anywhere, negative included
		case 1:
			now = sim.Time(rng.Int63n(2e15))
		case 2, 3, 4, 5:
			// same instant as the previous event
		default:
			now += sim.Time(rng.Int63n(2_000_000))
		}
		evs[i] = obs.Event{
			T: now, Type: obs.EventType(rng.Intn(22)), Scope: scopes[rng.Intn(len(scopes))],
			Flow: rng.Int63n(5000), Seq: rng.Int63n(1 << 32), Bytes: unit.Bytes(rng.Intn(1539)),
			Val: value(), Aux: value(), Aux2: value(),
		}
		if rng.Intn(64) == 0 {
			evs[i].Flow, evs[i].Seq = int64(rng.Uint64()), int64(rng.Uint64())
		}
	}
	return evs
}

func TestSinksMatchReferenceOnRandomEvents(t *testing.T) { diffSinks(t, randomEvents(150000)) }

// TestSinkRecordDoesNotAllocate: the encoder appends into a buffer the
// sink owns, so steady-state Record is allocation-free on either sink,
// strconv fallbacks and buffer flushes included.
func TestSinkRecordDoesNotAllocate(t *testing.T) {
	events := captureShuffle(t)
	for _, s := range formats {
		sink := s.sink(io.Discard)
		i := 0
		if avg := testing.AllocsPerRun(50000, func() {
			sink.Record(events[i%len(events)])
			i++
		}); avg != 0 {
			t.Errorf("%s: %.3f allocs per Record, want 0", s.name, avg)
		}
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkSinkRecord reports the encoder's cost on the captured
// shuffle stream, ns/op being ns per event:
//
//	go test -run '^$' -bench SinkRecord -benchmem ./internal/obs/
func BenchmarkSinkRecord(b *testing.B) {
	events := captureShuffle(b)
	for _, s := range formats {
		b.Run(s.name, func(b *testing.B) {
			var w countingWriter
			sink := s.sink(&w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Record(events[i%len(events)])
			}
			b.StopTimer()
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "B/event")
		})
	}
}
