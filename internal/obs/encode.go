package obs

import (
	"io"
	"math"
	"strconv"

	"expresspass/internal/sim"
)

// This file is the package's only number and line formatter: the JSONL
// and CSV sinks, the metrics CSV and the flight-recorder dump all build
// their lines here. The output contract is "byte for byte what
// strconv.AppendFloat(x, 'g', -1, 64) and strconv.AppendInt print" — the
// golden schema file and the strconv/fmt reference encoders in
// sink_diff_test.go are the spec — but the common cases never reach
// the float formatter:
//
//   - sim.Time is an integer count of picoseconds, so t.Micros() is the
//     decimal t/10^6. For 0 < t < 10^15 ps that decimal has at most 15
//     significant digits, and decimals that short map one-to-one onto
//     float64s (DBL_DIG = 15): no shorter digit string names the same
//     double, so the digits of t, with the point placed and trailing
//     zeros trimmed, are exactly strconv's shortest round-trip digits.
//   - Val/Aux/Aux2 are mostly small whole numbers (queue bytes, packet
//     counts, kind codes, zeros). A whole v in [0, 10^6) prints under
//     'g' as its integer digits.
//
// Everything else — negative or ≥ 10^15 ps clocks, fractions (rates in
// Gbps, w), -0, NaN, ±Inf, values ≥ 10^6 (where 'g' switches to
// d.ddde+XX) — goes through strconv unchanged.

const (
	microsExactBelow = sim.Time(1e15) // ≤ 15 significant digits
	microsFixedFrom  = sim.Time(100)  // below: exponent < -4, 'g' prints d.dde-05
	microsFixedBelow = sim.Time(1e12) // from: exponent ≥ 6, 'g' prints d.ddde+06
	valueIntBelow    = 1e6            // from: 'g' prints 1e+06
)

// appendMicros appends t.Micros() formatted as
// strconv.AppendFloat(_, 'g', -1, 64) would, without leaving integer
// arithmetic for 0 ≤ t < 10^15 ps.
func appendMicros(dst []byte, t sim.Time) []byte {
	switch {
	case t >= microsFixedFrom && t < microsFixedBelow:
		// Fixed notation: whole microseconds, then the sub-microsecond
		// picoseconds as a zero-padded, zero-trimmed fraction.
		us, ps := uint64(t)/1e6, uint64(t)%1e6
		dst = strconv.AppendUint(dst, us, 10)
		if ps == 0 {
			return dst
		}
		var frac [6]byte
		n := 0 // length once trailing zeros are dropped
		for i := 5; i >= 0; i-- {
			d := byte(ps % 10)
			ps /= 10
			frac[i] = '0' + d
			if n == 0 && d != 0 {
				n = i + 1
			}
		}
		dst = append(dst, '.')
		return append(dst, frac[:n]...)
	case t == 0:
		return append(dst, '0')
	case t > 0 && t < microsExactBelow:
		// Exponent notation d[.ddd]e±XX: the digits of t with trailing
		// zeros dropped; t has n digits, so t/10^6 = d.ddd × 10^(n-7).
		var digs [15]byte
		ds := strconv.AppendUint(digs[:0], uint64(t), 10)
		exp := len(ds) - 7
		for ds[len(ds)-1] == '0' {
			ds = ds[:len(ds)-1]
		}
		dst = append(dst, ds[0])
		if len(ds) > 1 {
			dst = append(dst, '.')
			dst = append(dst, ds[1:]...)
		}
		if exp < 0 {
			return append(dst, 'e', '-', '0', byte('0'-exp))
		}
		return append(dst, 'e', '+', '0', byte('0'+exp))
	}
	return strconv.AppendFloat(dst, t.Micros(), 'g', -1, 64)
}

// appendValue appends v formatted as strconv.AppendFloat(_, 'g', -1, 64)
// would; whole numbers in [0, 10^6) take the integer path.
func appendValue(dst []byte, v float64) []byte {
	if v >= 0 && v < valueIntBelow {
		if u := uint64(v); float64(u) == v && (u != 0 || !math.Signbit(v)) {
			return strconv.AppendUint(dst, u, 10)
		}
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// lineChunk is the size of every write handed to the underlying writer
// (the last one excepted): the same 64 KiB cuts the bufio.Writer this
// replaced made, so a RotatingWriter sees the identical chunk stream and
// rotates at the identical lines.
const lineChunk = 1 << 16

// lineWriter accumulates encoded lines in a buffer it owns and hands
// them to w one lineChunk at a time — one Write per 64 KiB of trace
// instead of one method call per field. The first write error is
// latched; callers check failed() and stop encoding.
type lineWriter struct {
	w   io.Writer
	c   io.Closer // closed on Close when the target is a file
	err error     // first write error, latched
	buf []byte

	// Memo of the last timestamp formatted: enqueue and dequeue emit
	// data_* + qdepth pairs at one instant, and a metrics tick writes
	// every gauge's row at one instant.
	memoT sim.Time
	memo  []byte
}

func newLineWriter(w io.Writer) *lineWriter {
	lw := &lineWriter{
		w:    w,
		buf:  make([]byte, 0, lineChunk+512),
		memo: append(make([]byte, 0, 24), '0'), // memoT's zero value, formatted
	}
	if c, ok := w.(io.Closer); ok {
		lw.c = c
	}
	return lw
}

func (lw *lineWriter) failed() bool { return lw.err != nil }

// micros appends t.Micros() to dst (normally lw.buf, held in a local by
// the caller), reusing the previous call's digits when t has not moved.
func (lw *lineWriter) micros(dst []byte, t sim.Time) []byte {
	if t != lw.memoT {
		lw.memo = appendMicros(lw.memo[:0], t)
		lw.memoT = t
	}
	return append(dst, lw.memo...)
}

// commit stores the buffer back after a line was appended to it and
// writes out every full chunk.
func (lw *lineWriter) commit(buf []byte) {
	for len(buf) >= lineChunk && lw.err == nil {
		lw.write(buf[:lineChunk])
		buf = buf[:copy(buf, buf[lineChunk:])]
	}
	lw.buf = buf
}

func (lw *lineWriter) write(p []byte) {
	n, err := lw.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	lw.err = err
}

// flush writes out the buffered tail.
func (lw *lineWriter) flush() {
	if lw.err == nil && len(lw.buf) > 0 {
		lw.write(lw.buf)
	}
	lw.buf = lw.buf[:0]
}

// Close flushes (and closes the underlying file, if any), returning the
// first error seen across the writer's lifetime.
func (lw *lineWriter) Close() error {
	lw.flush()
	err := lw.err
	if lw.c != nil {
		if cerr := lw.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Per-type line fragments, built once: the type name joined to the
// fixed text either side of it, so a line appends all three at once.
// The last slot serves every out-of-range type ("unknown").
var (
	jsonTypeFrag [numEventTypes + 1]string // ,"ev":"<name>","scope":"
	csvTypeFrag  [numEventTypes + 1]string // ,<name>,
)

func init() {
	for ty := range jsonTypeFrag {
		name := EventType(ty).String()
		jsonTypeFrag[ty] = `,"ev":"` + name + `","scope":"`
		csvTypeFrag[ty] = "," + name + ","
	}
}

func typeFrag(tab *[numEventTypes + 1]string, ty EventType) string {
	if ty > numEventTypes {
		ty = numEventTypes
	}
	return tab[ty]
}
