package obs

import (
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"slices"
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
//
// Every integer digit string below 10^8 comes from one generator,
// appendUint, which converts all eight digits at once in a uint64 (SWAR:
// lanes of a register split and carried in parallel) and stores them
// with a single 8-byte write; DESIGN.md "the trace encoder contract"
// derives it. That store, like the fixed-width frag copies below, writes
// scratch bytes past the digits' end, so the sinks reserve room for a
// whole line before they start one (lineWriter.line).

const (
	microsExactBelow = sim.Time(1e15) // ≤ 15 significant digits
	microsFixedFrom  = sim.Time(100)  // below: exponent < -4, 'g' prints d.dde-05
	microsFixedBelow = sim.Time(1e12) // from: exponent ≥ 6, 'g' prints d.ddde+06
	valueIntBelow    = 1e6            // from: 'g' prints 1e+06
	swarBelow        = 1e8            // appendUint's eight-digit register

	asciiZeros = 0x30303030_30303030 // '0' in every byte
)

// swarDigits returns the eight decimal digits of u < 10^8, zero-padded,
// one per byte, the most significant in the lowest byte. Each step
// splits every lane of the register into a quotient lane (low half) and
// a remainder lane (high half):
//
//   - u → ⌊u/10^4⌋ | (u mod 10^4)<<32: two 4-digit lanes;
//   - x·10486>>20 = ⌊x/100⌋ for every x < 10^4: four 2-digit lanes;
//   - y·103>>10 = ⌊y/10⌋ for every y < 100: eight 1-digit lanes.
//
// Both identities are exact on their whole domains
// (TestSWARLaneIdentities checks every x and y), and neither product
// outgrows its lane, so no lane borrows from or carries into another.
func swarDigits(u uint64) uint64 {
	x := u/10000 | u%10000<<32
	q := x * 10486 >> 20 & 0x0000007f_0000007f
	x = q | (x-q*100)<<16
	q = x * 103 >> 10 & 0x000f000f_000f000f
	return q | (x-q*10)<<8
}

// appendUint appends u as strconv.AppendUint(dst, u, 10) does. A single
// digit — most of a trace's fields — is one byte and needs no register.
// Below 10^8 the leading zero digits are shifted out of swarDigits'
// register (their count is its trailing zero bytes) and the eight bytes
// are stored at once, in memory order on any platform.
func appendUint(dst []byte, u uint64) []byte {
	if u >= swarBelow {
		return strconv.AppendUint(dst, u, 10)
	}
	if u < 10 {
		return append(dst, byte(u)+'0')
	}
	d := swarDigits(u)
	z := bits.TrailingZeros64(d) &^ 7
	return put8(dst, d>>z|asciiZeros, 8-z/8)
}

// appendInt appends v as strconv.AppendInt(dst, v, 10) does.
func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		return strconv.AppendInt(dst, v, 10)
	}
	return appendUint(dst, uint64(v))
}

// put8 stores the eight bytes of v after dst's last element, least
// significant first, and extends dst by the first n of them. The bytes
// past n are scratch: the next append overwrites them.
func put8(dst []byte, v uint64, n int) []byte {
	l := len(dst)
	dst = slices.Grow(dst, 8)
	binary.LittleEndian.PutUint64(dst[l:l+8], v)
	return dst[:l+n]
}

// appendMicros appends t.Micros() formatted as
// strconv.AppendFloat(_, 'g', -1, 64) would, without leaving integer
// arithmetic for 0 ≤ t < 10^15 ps.
func appendMicros(dst []byte, t sim.Time) []byte {
	switch {
	case t >= microsFixedFrom && t < microsFixedBelow:
		// Fixed notation: whole microseconds, then the sub-microsecond
		// picoseconds as a zero-padded, zero-trimmed fraction. The
		// fraction's six digits are the first six of ps·100's eight (the
		// last two are zero), so with trailing zeros dropped it is the
		// register's bytes up to its highest non-zero one; the point
		// rides in the store's first byte and the always-zero last digit
		// is shifted out.
		us, ps := uint64(t)/1e6, uint64(t)%1e6
		dst = appendUint(dst, us)
		if ps == 0 {
			return dst
		}
		d := swarDigits(ps * 100)
		n := 8 - bits.LeadingZeros64(d)/8
		return put8(dst, (d|asciiZeros)<<8|'.', 1+n)
	case t == 0:
		return append(dst, '0')
	case t > 0 && t < microsExactBelow:
		// Exponent notation d[.ddd]e±XX: the digits of t with trailing
		// zeros dropped; t has n digits, so t/10^6 = d.ddd × 10^(n-7).
		var digs [15]byte
		ds := appendUint(digs[:0], uint64(t))
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
// would; whole numbers in [0, 10^6) take the integer path. The test is
// one truncation, one unsigned range check (which every negative fails)
// and one bit comparison: for a fraction, -0, NaN, ±Inf or anything out
// of int64's range, whatever int64(v) yields converts back to other bits.
func appendValue(dst []byte, v float64) []byte {
	if i := int64(v); uint64(i) < valueIntBelow && math.Float64bits(float64(i)) == math.Float64bits(v) {
		return appendUint(dst, uint64(i))
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
	memo  frag
}

func newLineWriter(w io.Writer) *lineWriter {
	lw := &lineWriter{
		w:    w,
		buf:  make([]byte, 0, lineChunk+512),
		memo: frag{b: [fragWidth]byte{'0'}, n: 1}, // memoT's zero value, formatted
	}
	if c, ok := w.(io.Closer); ok {
		lw.c = c
	}
	return lw
}

func (lw *lineWriter) failed() bool { return lw.err != nil }

// maxLine bounds what one line appends besides its scope and metric
// names — the CSV header, every number at strconv's widest (24 bytes for
// a float, 20 for an int64), the keys — plus the scratch bytes a put8 or
// frag store writes past the end. TestMaxLineBoundsWidestLine holds it.
const maxLine = 320

// line returns the buffer with room reserved for one more line whose
// names take n bytes, so no fixed-width store grows it mid-line.
func (lw *lineWriter) line(n int) []byte { return slices.Grow(lw.buf, maxLine+n) }

// micros appends t.Micros() to dst (normally lw.buf, held in a local by
// the caller), reusing the previous call's digits when t has not moved.
func (lw *lineWriter) micros(dst []byte, t sim.Time) []byte {
	if t != lw.memoT {
		lw.memo.n = len(appendMicros(lw.memo.b[:0], t))
		lw.memoT = t
	}
	return lw.memo.appendTo(dst)
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
	jsonTypeFrag [numEventTypes + 1]frag // ,"ev":"<name>","scope":"
	csvTypeFrag  [numEventTypes + 1]frag // ,<name>,
)

func init() {
	for ty := range jsonTypeFrag {
		name := EventType(ty).String()
		jsonTypeFrag[ty].n = copy(jsonTypeFrag[ty].b[:], `,"ev":"`+name+`","scope":"`)
		csvTypeFrag[ty].n = copy(csvTypeFrag[ty].b[:], ","+name+",")
	}
}

func typeFrag(tab *[numEventTypes + 1]frag, ty EventType) *frag {
	if ty > numEventTypes {
		ty = numEventTypes
	}
	return &tab[ty]
}

// fragWidth holds the longest type fragment (31 bytes) and the longest
// formatted timestamp (22).
const fragWidth = 32

// frag is a short string kept at a fixed width, so appending it is one
// fixed-size copy — register moves instead of a memmove call — whose
// bytes past n are scratch the rest of the line overwrites.
type frag struct {
	b [fragWidth]byte
	n int
}

func (f *frag) appendTo(dst []byte) []byte {
	l := len(dst)
	dst = slices.Grow(dst, fragWidth)
	*(*[fragWidth]byte)(dst[l : l+fragWidth]) = f.b
	return dst[:l+f.n]
}
