package obs

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expresspass/internal/sim"
)

func testEvent(i int) Event {
	return Event{
		T:     sim.Time(i) * sim.Microsecond,
		Type:  EvCreditSent,
		Scope: "tor->h0",
		Flow:  int64(i),
		Seq:   int64(i),
		Bytes: 84,
	}
}

// segmentFiles returns the files in dir, in name order: the segments a
// RotatingWriter left on disk, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestRotatingWriterSplitsAtLineBoundaries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	rw, err := NewRotatingWriter(path, RotateConfig{MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewJSONLSink(rw)
	for i := 0; i < 200; i++ {
		sink.Record(testEvent(i))
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	total := 0
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("segment %s is empty", seg)
		}
		if b[len(b)-1] != '\n' {
			t.Errorf("segment %s does not end at a line boundary", seg)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
			if !strings.HasPrefix(line, `{"t_us":`) || !strings.HasSuffix(line, "}") {
				t.Fatalf("segment %s holds a torn line: %q", seg, line)
			}
			total++
		}
	}
	if total != 200 {
		t.Fatalf("want 200 events across segments, got %d", total)
	}
}

func TestRotatingWriterSegmentNaming(t *testing.T) {
	dir := t.TempDir()
	rw, err := NewRotatingWriter(filepath.Join(dir, "trace.jsonl"),
		RotateConfig{MaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := rw.Write([]byte("0123456789012345678901234567890123456789\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if got := filepath.Base(segs[0]); got != "trace-00000.jsonl" {
		t.Fatalf("first segment named %q", got)
	}
	if got := filepath.Base(segs[1]); got != "trace-00001.jsonl" {
		t.Fatalf("second segment named %q", got)
	}
}

func TestRotatingWriterGzipSegmentsDecompressIndependently(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	rw, err := NewRotatingWriter(path, RotateConfig{MaxBytes: 512, Gzip: true})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewJSONLSink(rw)
	for i := 0; i < 200; i++ {
		sink.Record(testEvent(i))
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	total := 0
	for _, seg := range segs {
		if !strings.HasSuffix(seg, ".gz") {
			t.Fatalf("gzip segment %s lacks .gz suffix", seg)
		}
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("segment %s is not valid gzip: %v", seg, err)
		}
		b, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("decompress %s: %v", seg, err)
		}
		if err := zr.Close(); err != nil {
			t.Fatalf("gzip close %s: %v", seg, err)
		}
		f.Close()
		total += strings.Count(string(b), "\n")
	}
	if total != 200 {
		t.Fatalf("want 200 events across gzip segments, got %d", total)
	}
}

func TestRotatingWriterNoRotationGzipSingleFile(t *testing.T) {
	dir := t.TempDir()
	rw, err := NewRotatingWriter(filepath.Join(dir, "out.jsonl"),
		RotateConfig{Gzip: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) != 1 || filepath.Base(segs[0]) != "out.jsonl.gz" {
		t.Fatalf("want single out.jsonl.gz, got %v", segs)
	}
}

func TestRotatingWriterHeaderPerSegment(t *testing.T) {
	dir := t.TempDir()
	header := "t_us,ev,scope,flow,seq,bytes,val,aux,aux2\n"
	rw, err := NewRotatingWriter(filepath.Join(dir, "out.csv"),
		RotateConfig{MaxBytes: 256, Header: []byte(header)})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCSVSink(rw)
	for i := 0; i < 50; i++ {
		sink.Record(testEvent(i))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), header) {
			t.Errorf("segment %s does not start with the CSV header", seg)
		}
		if strings.Count(string(b), header) != 1 {
			t.Errorf("segment %s repeats the CSV header", seg)
		}
	}
}

// callWriter records each Write call it forwards.
type callWriter struct {
	w     io.Writer
	calls []string
}

func (c *callWriter) Write(p []byte) (int, error) {
	c.calls = append(c.calls, string(p))
	return c.w.Write(p)
}

// TestRotatingWriterWritesRunsWhole: lines that stay in one segment
// reach its file in one call, not one call per line. A Write that
// straddles a rotation point reaches the old segment in one call holding
// every line before the point, and leaves the rest to the new segment.
func TestRotatingWriterWritesRunsWhole(t *testing.T) {
	const line = "0123456789abcdef\n" // 17 bytes
	p := strings.Repeat(line, 5) + "tail"
	for _, tc := range []struct {
		name          string
		cfg           RotateConfig
		first, second string // the segments' contents
	}{
		{"one segment", RotateConfig{MaxBytes: 100}, p, ""},
		{"straddles", RotateConfig{MaxBytes: 60}, p[:3*len(line)], p[3*len(line):]}, // 60 bytes hold three lines
		{"no rotation", RotateConfig{}, p, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rw, err := NewRotatingWriter(filepath.Join(dir, "out.jsonl"), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			first := &callWriter{w: rw.w}
			rw.w = first
			if n, err := rw.Write([]byte(p)); n != len(p) || err != nil {
				t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(p))
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			if len(first.calls) != 1 || first.calls[0] != tc.first {
				t.Fatalf("first segment reached its file in calls %q, want one: %q", first.calls, tc.first)
			}
			var got []string
			for _, seg := range segmentFiles(t, dir) {
				b, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, string(b))
			}
			want := []string{tc.first}
			if tc.second != "" {
				want = append(want, tc.second)
			}
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("segments hold %q, want %q", got, want)
			}
		})
	}
}

// failAfterWriter fails every write once n bytes have been accepted,
// counting the calls it receives.
type failAfterWriter struct {
	n     int
	err   error
	calls int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

var errDiskFull = errors.New("disk full")

// checkSinkLatchesWriteError drives a sink whose writer w fails after
// 100 bytes: the error must latch in the sink's lineWriter lw, Close
// must report it, and once it has latched Record must stop encoding
// (lw's buffer stays as it was) and the dead writer must see no further
// calls — not format into the void for the rest of the run.
func checkSinkLatchesWriteError(t *testing.T, sink Sink, lw *lineWriter, w *failAfterWriter) {
	// The 64 KiB buffer absorbs writes until enough records force a
	// flush; keep recording well past that point.
	for i := 0; i < 5000; i++ {
		sink.Record(testEvent(i))
	}
	if !errors.Is(lw.err, errDiskFull) {
		t.Fatalf("latched error = %v, want %v", lw.err, errDiskFull)
	}
	if w.calls != 1 {
		t.Fatalf("writer saw %d calls by the time the error latched, want the one that failed", w.calls)
	}
	held := len(lw.buf)
	for i := 0; i < 5000; i++ {
		sink.Record(testEvent(i))
	}
	if len(lw.buf) != held {
		t.Errorf("Record kept encoding after the write failed: buffer grew %d → %d bytes", held, len(lw.buf))
	}
	if err := sink.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the latched write error %v", err, errDiskFull)
	}
	if w.calls != 1 {
		t.Fatalf("writer saw %d calls after its write failed, want none", w.calls-1)
	}
}

func TestJSONLSinkLatchesWriteError(t *testing.T) {
	w := &failAfterWriter{n: 100, err: errDiskFull}
	sink := NewJSONLSink(w)
	checkSinkLatchesWriteError(t, sink, sink.lw, w)
}

func TestCSVSinkLatchesWriteError(t *testing.T) {
	w := &failAfterWriter{n: 100, err: errDiskFull}
	sink := NewCSVSink(w)
	checkSinkLatchesWriteError(t, sink, sink.lw, w)
}

func TestSinkCloseReportsDeferredFlushError(t *testing.T) {
	boom := errors.New("disk full")
	// Small enough that nothing flushes before Close: the error must
	// still surface from Close's final flush.
	sink := NewJSONLSink(&failAfterWriter{n: 0, err: boom})
	sink.Record(testEvent(1))
	if err := sink.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}

func TestRotatingWriterPropagatesOpenError(t *testing.T) {
	_, err := NewRotatingWriter(filepath.Join(t.TempDir(), "no/such/dir/out.jsonl"),
		RotateConfig{})
	if err == nil {
		t.Fatal("want error creating segment in missing directory")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\txpsim\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"
	if got := parseVmHWM(status); got != 12345*1024 {
		t.Fatalf("parseVmHWM = %d, want %d", got, 12345*1024)
	}
	if got := parseVmHWM("Name:\tx\n"); got != 0 {
		t.Fatalf("missing field should parse to 0, got %d", got)
	}
}
