package obs

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// RotateConfig configures a RotatingWriter.
type RotateConfig struct {
	// MaxBytes is the per-segment size budget. When a write would push
	// the current segment past it, the writer rotates to a new segment
	// first — but only at a line boundary, so every segment is a valid
	// JSONL/CSV document on its own. 0 disables rotation (single file).
	// The budget is measured in uncompressed bytes even when Gzip is on,
	// so rotation points are independent of compression ratio.
	MaxBytes int64

	// Gzip compresses each segment independently (segment files get a
	// .gz suffix). Per-segment compression keeps every rotated file
	// individually decompressible — a crashed run loses at most the
	// unflushed tail of the last segment.
	Gzip bool

	// Header, when non-empty, is re-emitted at the start of every
	// segment after the first (the sink itself writes it to the first).
	// CSV sinks use this so each rotated file carries the column row;
	// JSONL needs none.
	Header []byte
}

// RotatingWriter is an io.WriteCloser that splits its output stream
// into size-bounded segment files, optionally gzip-compressed. It sits
// between a trace sink and the filesystem: the sink writes an opaque
// byte stream, the writer cuts it into self-contained files.
//
// With rotation enabled, "out.jsonl" becomes "out-00000.jsonl",
// "out-00001.jsonl", …; with Gzip each name gains ".gz". Without
// rotation the single file keeps the given path (plus ".gz" if
// compressed).
//
// The first write error is latched: subsequent writes fail fast with
// it, and Close reports it, so a full disk surfaces as a non-zero
// exit instead of a silently truncated trace.
type RotatingWriter struct {
	path string
	cfg  RotateConfig

	f    *os.File
	gz   *gzip.Writer
	w    io.Writer // gz when compressing, else f
	seq  int
	size int64 // uncompressed bytes in the current segment
	// atBoundary is true when the last byte written was '\n' — the only
	// points where rotation is allowed.
	atBoundary bool
	err        error
}

// NewRotatingWriter opens the first segment under path per cfg.
func NewRotatingWriter(path string, cfg RotateConfig) (*RotatingWriter, error) {
	w := &RotatingWriter{path: path, cfg: cfg, atBoundary: true}
	if err := w.openSegment(false); err != nil {
		return nil, err
	}
	return w, nil
}

// segmentPath returns the filename of segment seq.
func (w *RotatingWriter) segmentPath(seq int) string {
	p := w.path
	if w.cfg.MaxBytes > 0 {
		ext := filepath.Ext(p)
		p = fmt.Sprintf("%s-%05d%s", strings.TrimSuffix(p, ext), seq, ext)
	}
	if w.cfg.Gzip && !strings.HasSuffix(p, ".gz") {
		p += ".gz"
	}
	return p
}

func (w *RotatingWriter) openSegment(withHeader bool) error {
	name := w.segmentPath(w.seq)
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w.f = f
	if w.cfg.Gzip {
		w.gz = gzip.NewWriter(f)
		w.w = w.gz
	} else {
		w.gz = nil
		w.w = f
	}
	w.size = 0
	if withHeader && len(w.cfg.Header) > 0 {
		n, herr := w.w.Write(w.cfg.Header)
		w.size += int64(n)
		if herr != nil {
			return herr
		}
	}
	return nil
}

// closeSegment finishes the current segment (gzip trailer, then file).
func (w *RotatingWriter) closeSegment() error {
	var err error
	if w.gz != nil {
		err = w.gz.Close()
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	w.f, w.gz, w.w = nil, nil, nil
	return err
}

func (w *RotatingWriter) rotate() error {
	if err := w.closeSegment(); err != nil {
		return err
	}
	w.seq++
	return w.openSegment(true)
}

// Write implements io.Writer. Chunks are scanned for newlines so that
// rotation happens only between lines, never inside one: a partial
// line always stays with its segment until its '\n' arrives. Each run
// of lines that stays in one segment reaches the file in one call; with
// rotation off, all of p does.
func (w *RotatingWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.cfg.MaxBytes <= 0 {
		n, err := w.w.Write(p)
		w.err = err
		return n, err
	}
	total := 0
	for len(p) > 0 {
		run := lineLen(p)
		if w.atBoundary && w.size > 0 && w.size+int64(run) > w.cfg.MaxBytes {
			if err := w.rotate(); err != nil {
				w.err = err
				return total, err
			}
		}
		// Take whole lines while the segment would not rotate before them.
		for run < len(p) && p[run-1] == '\n' {
			next := lineLen(p[run:])
			if w.size+int64(run+next) > w.cfg.MaxBytes {
				break
			}
			run += next
		}
		n, err := w.w.Write(p[:run])
		w.size += int64(n)
		total += n
		w.atBoundary = n > 0 && p[n-1] == '\n'
		if err != nil {
			w.err = err
			return total, err
		}
		p = p[run:]
	}
	return total, nil
}

// lineLen is the length of p's first line, its '\n' included, or all of
// p when it holds no '\n'.
func lineLen(p []byte) int {
	if i := bytes.IndexByte(p, '\n'); i >= 0 {
		return i + 1
	}
	return len(p)
}

// Close finishes the current segment, returning the first error seen
// across the writer's lifetime.
func (w *RotatingWriter) Close() error {
	err := w.err
	if cerr := w.closeSegment(); err == nil {
		err = cerr
	}
	return err
}
