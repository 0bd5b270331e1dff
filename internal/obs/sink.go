package obs

import "io"

// JSONLSink encodes each event as one JSON object per line. The schema
// is flat and fixed — every line carries the same nine keys in the same
// order — so downstream tooling (jq, pandas.read_json(lines=True)) can
// consume a trace without per-type handling:
//
//	{"t_us":12.345,"ev":"credit_drop","scope":"tor->h3","flow":7,
//	 "seq":123,"bytes":84,"val":3,"aux":0,"aux2":0}
//
// The encoder is hand-rolled (encode.go): encoding/json reflection
// would dominate the cost of tracing-enabled runs, and the golden-file
// test pins this exact byte format as the schema contract.
type JSONLSink struct {
	lw *lineWriter
}

// NewJSONLSink writes JSON lines to w. If w is an io.Closer it is
// closed by Close (after the buffer is flushed).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{lw: newLineWriter(w)}
}

// Record appends ev as one line. The two Record bodies spell their
// separators out as constants rather than sharing a table of them: the
// compiler turns a constant append into plain stores, and a table
// measured 25 ns/event (a third) slower on BenchmarkSinkRecord.
func (s *JSONLSink) Record(ev Event) {
	lw := s.lw
	if lw.failed() {
		return
	}
	b := append(lw.line(len(ev.Scope)), `{"t_us":`...)
	b = lw.micros(b, ev.T)
	b = typeFrag(&jsonTypeFrag, ev.Type).appendTo(b)
	b = append(b, ev.Scope...)
	b = append(b, `","flow":`...)
	b = appendInt(b, ev.Flow)
	b = append(b, `,"seq":`...)
	b = appendInt(b, ev.Seq)
	b = append(b, `,"bytes":`...)
	b = appendInt(b, int64(ev.Bytes))
	b = append(b, `,"val":`...)
	b = appendValue(b, ev.Val)
	b = append(b, `,"aux":`...)
	b = appendValue(b, ev.Aux)
	b = append(b, `,"aux2":`...)
	b = appendValue(b, ev.Aux2)
	b = append(b, '}', '\n')
	lw.commit(b)
}

// Err returns the first write error encountered, if any. Sinks keep
// accepting Record calls after a failure (the simulation must not
// crash mid-run over a full disk) but drop them unencoded; the error
// is latched and reported here and from Close.
func (s *JSONLSink) Err() error { return s.lw.err }

// Close flushes buffered lines (and closes the underlying file, if
// any), returning the first error seen across the sink's lifetime.
func (s *JSONLSink) Close() error { return s.lw.Close() }

// WriteJSONL writes evs to w as lines of a JSONLSink trace, oldest
// first, and leaves w open even if it is an io.Closer: the invariant
// checker's flight dump goes to a writer that other dumps share.
func WriteJSONL(w io.Writer, evs []Event) error {
	s := NewJSONLSink(struct{ io.Writer }{w})
	for _, ev := range evs {
		s.Record(ev)
	}
	return s.Close()
}

// CSVHeader is the column row a CSVSink emits before its first record
// — exported so a RotatingWriter can re-emit it at each segment start.
const CSVHeader = "t_us,ev,scope,flow,seq,bytes,val,aux,aux2\n"

// CSVSink encodes events as CSV with a fixed header, one row per event
// — the same columns as the JSONL schema, for spreadsheet-style tools.
type CSVSink struct {
	lw     *lineWriter
	header bool
}

// NewCSVSink writes CSV rows to w (header emitted on first record).
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{lw: newLineWriter(w)}
}

func (s *CSVSink) Record(ev Event) {
	lw := s.lw
	if lw.failed() {
		return
	}
	b := lw.line(len(ev.Scope))
	if !s.header {
		s.header = true
		b = append(b, CSVHeader...)
	}
	b = lw.micros(b, ev.T)
	b = typeFrag(&csvTypeFrag, ev.Type).appendTo(b)
	b = append(b, ev.Scope...)
	b = append(b, ',')
	b = appendInt(b, ev.Flow)
	b = append(b, ',')
	b = appendInt(b, ev.Seq)
	b = append(b, ',')
	b = appendInt(b, int64(ev.Bytes))
	b = append(b, ',')
	b = appendValue(b, ev.Val)
	b = append(b, ',')
	b = appendValue(b, ev.Aux)
	b = append(b, ',')
	b = appendValue(b, ev.Aux2)
	b = append(b, '\n')
	lw.commit(b)
}

// Err returns the first write error encountered, if any.
func (s *CSVSink) Err() error { return s.lw.err }

// Close flushes buffered rows (and closes the underlying file, if
// any), returning the first error seen across the sink's lifetime.
func (s *CSVSink) Close() error { return s.lw.Close() }

// RingSink keeps the last N events in memory — the sink tests and
// debugging sessions use to make assertions about what a component
// emitted without any I/O.
type RingSink struct {
	evs   []Event
	next  int
	total uint64
	full  bool
}

// NewRingSink returns a sink retaining the most recent capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 1024
	}
	return &RingSink{evs: make([]Event, capacity)}
}

func (s *RingSink) Record(ev Event) {
	s.evs[s.next] = ev
	s.next++
	s.total++
	if s.next == len(s.evs) {
		s.next = 0
		s.full = true
	}
}

// Close is a no-op (the ring stays readable).
func (s *RingSink) Close() error { return nil }

// Total returns the number of events ever recorded.
func (s *RingSink) Total() uint64 { return s.total }

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	if !s.full {
		return append([]Event(nil), s.evs[:s.next]...)
	}
	out := make([]Event, 0, len(s.evs))
	out = append(out, s.evs[s.next:]...)
	return append(out, s.evs[:s.next]...)
}

// CountType returns how many retained events have the given type.
func (s *RingSink) CountType(ty EventType) int {
	n := 0
	for _, ev := range s.Events() {
		if ev.Type == ty {
			n++
		}
	}
	return n
}
