package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"expresspass/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedEvents is one event of every type with representative payloads —
// the corpus the schema golden file pins.
func fixedEvents() []Event {
	return []Event{
		{T: 1 * sim.Microsecond, Type: EvCreditSent, Scope: "h1", Flow: 3, Seq: 1, Bytes: 84, Val: 4.84, Aux: 0.0625},
		{T: 2 * sim.Microsecond, Type: EvCreditRecv, Scope: "h0", Flow: 3, Seq: 1, Bytes: 84},
		{T: 2500 * sim.Nanosecond, Type: EvCreditWaste, Scope: "h0", Flow: 3, Seq: 2, Bytes: 84},
		{T: 3 * sim.Microsecond, Type: EvCreditDrop, Scope: "tor->h1", Flow: 3, Seq: 7, Bytes: 92, Val: 8},
		{T: 4 * sim.Microsecond, Type: EvDataEnq, Scope: "h0->tor", Flow: 3, Seq: 1538, Bytes: 1538, Val: 3076, Aux: 1, Aux2: 0},
		{T: 5 * sim.Microsecond, Type: EvDataDeq, Scope: "h0->tor", Flow: 3, Seq: 1538, Bytes: 1538, Val: 1538},
		{T: 6 * sim.Microsecond, Type: EvDataDrop, Scope: "tor->h1", Flow: 4, Seq: 0, Bytes: 1538, Val: 384500},
		{T: 7 * sim.Microsecond, Type: EvQueueDepth, Scope: "tor->h1", Val: 3076, Aux: 2},
		{T: 8 * sim.Microsecond, Type: EvCreditQDepth, Scope: "tor->h0", Val: 5},
		{T: 9 * sim.Microsecond, Type: EvFeedback, Scope: "h1", Flow: 3, Val: 2.42, Aux: 0.03125, Aux2: 0.125},
		{T: 10 * sim.Microsecond, Type: EvPFCPause, Scope: "tor->h1", Val: 66000},
		{T: 11 * sim.Microsecond, Type: EvPFCResume, Scope: "tor->h1", Val: 31000},
		{T: 12 * sim.Microsecond, Type: EvFaultStart, Scope: "flap:swL->swR", Val: 2},
		{T: 13 * sim.Microsecond, Type: EvFaultDrop, Scope: "swL->swR", Flow: 3, Seq: 9, Bytes: 1538},
		{T: 14 * sim.Microsecond, Type: EvFaultEnd, Scope: "flap:swL->swR", Val: 2},
		{T: 15 * sim.Microsecond, Type: EvDataSend, Scope: "h0", Flow: 3, Seq: 42, Bytes: 1460},
		{T: 16 * sim.Microsecond, Type: EvCreditTx, Scope: "tor->h0", Flow: 3, Seq: 42, Bytes: 87},
		{T: 17 * sim.Microsecond, Type: EvRouteBuild, Scope: "net"},
	}
}

// TestJSONLSchemaGolden pins the JSONL trace schema byte-for-byte: any
// change to field names, order, or formatting must update the golden
// file consciously (go test ./internal/obs -run Golden -update).
func TestJSONLSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	for _, ev := range fixedEvents() {
		tr.Emit(ev)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_schema.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace schema drifted from golden file\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestJSONLLinesAreValidJSON checks every emitted line parses as JSON
// with the full fixed key set.
func TestJSONLLinesAreValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(&buf))
	for _, ev := range fixedEvents() {
		tr.Emit(ev)
	}
	tr.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(fixedEvents()) {
		t.Fatalf("got %d lines, want %d", len(lines), len(fixedEvents()))
	}
	keys := []string{"t_us", "ev", "scope", "flow", "seq", "bytes", "val", "aux", "aux2"}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing key %q", i, k)
			}
		}
		if len(m) != len(keys) {
			t.Errorf("line %d has %d keys, want %d", i, len(m), len(keys))
		}
	}
}

func TestTracerFilter(t *testing.T) {
	ring := NewRingSink(16)
	tr := NewTracer(ring, EvCreditDrop, EvFeedback)
	for _, ev := range fixedEvents() {
		tr.Emit(ev)
	}
	if got := tr.Count(); got != 2 {
		t.Errorf("filtered count = %d, want 2", got)
	}
	traced := map[EventType]int{}
	for _, ev := range ring.Events() {
		traced[ev.Type]++
	}
	if n := traced[EvCreditDrop]; n != 1 {
		t.Errorf("credit_drop count = %d, want 1", n)
	}
	if n := traced[EvDataEnq]; n != 0 {
		t.Errorf("data_enq leaked through filter: %d", n)
	}
	if !tr.Enabled(EvFeedback) || tr.Enabled(EvDataDeq) {
		t.Error("Enabled() disagrees with the filter mask")
	}
}

func TestRingSinkWraps(t *testing.T) {
	ring := NewRingSink(4)
	for i := 0; i < 10; i++ {
		ring.Record(Event{Seq: int64(i)})
	}
	if ring.Total() != 10 {
		t.Errorf("total = %d, want 10", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Seq != want {
			t.Errorf("evs[%d].Seq = %d, want %d (oldest-first order)", i, ev.Seq, want)
		}
	}
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewCSVSink(&buf))
	tr.Emit(Event{T: sim.Microsecond, Type: EvDataEnq, Scope: "a->b", Flow: 1, Bytes: 1538, Val: 1538})
	tr.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header+row", len(lines))
	}
	if lines[0] != "t_us,ev,scope,flow,seq,bytes,val,aux,aux2" {
		t.Errorf("bad header: %s", lines[0])
	}
	if lines[1] != "1,data_enq,a->b,1,0,1538,1538,0,0" {
		t.Errorf("bad row: %s", lines[1])
	}
}

func TestEventTypeNames(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		name := ty.String()
		if name == "" || name == "unknown" {
			t.Fatalf("event type %d has no name", ty)
		}
		back, ok := EventTypeByName(name)
		if !ok || back != ty {
			t.Errorf("round trip failed for %q", name)
		}
	}
	if _, ok := EventTypeByName("bogus"); ok {
		t.Error("bogus name resolved")
	}
}

// TestEventStays80Bytes pins the struct size: Port must keep living in
// the padding after Type. Every event a ring holds is a copy of this
// struct.
func TestEventStays80Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 80 {
		t.Fatalf("obs.Event is %d bytes, want 80", n)
	}
}
