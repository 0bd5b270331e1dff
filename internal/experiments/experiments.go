// Package experiments contains one registered, runnable reproduction per
// table and figure of the paper's evaluation. Each experiment builds its
// topology, drives its workload, and returns the same rows/series the
// paper reports as a Result of typed tables, which Run prints.
// Experiments accept a Scale knob so they can run as laptop-fast smoke
// benches (small scale) or at paper scale (1.0).
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"expresspass/internal/faults"
	"expresspass/internal/invariant"
	"expresspass/internal/obs"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
)

// Params are a run, whole: what it computes and how it runs. Every
// engine the run creates is a sweep trial's (runner.T.Engine) and is
// wired from this value; nothing is read from process-wide state, so two
// runs with different Params may share a process, concurrently.
type Params struct {
	// Scale in (0, 1] shrinks flow counts / durations / sweep densities
	// proportionally. 1.0 reproduces the paper-scale configuration.
	Scale float64
	// Seed drives every random choice.
	Seed uint64
	// Faults, when not empty, replaces the built-in fault timeline of
	// the ext-faults-* and ext-chaos-* experiments (xpsim's -faults
	// flag); the other experiments ignore it.
	Faults faults.Plan
	// Procs is how many worker goroutines a sweep fans its trials
	// across (xpsim's -procs): 1 is serial, 0 means GOMAXPROCS. Output
	// is byte-identical at any count. A run whose Obs traces or writes
	// metrics runs serially whatever Procs says (runner.Run).
	Procs int
	// Obs, when non-nil, receives the trace events and metrics rows of
	// every network the run builds (xpsim's -trace, -metrics, -progress).
	Obs *obs.Runtime
	// Invariants, when non-nil, checks every network the run builds
	// (xpsim's -invariants); read the verdict from it after the run.
	Invariants *invariant.Set
}

// sweep is the run as package runner sees it: what a sweep needs of it.
func (p Params) sweep() runner.Run {
	r := runner.Run{Procs: p.Procs, Obs: p.Obs}
	if p.Invariants != nil {
		r.Check = p.Invariants.Attach
	}
	return r
}

// mapErr is runner.Map over trials that can fail — a -faults plan may
// name a port or host the trial's network lacks. Every trial runs, and
// the first error in cell order is returned.
func mapErr[C, R any](p Params, cells []C, fn func(t *runner.T, c C) (R, error)) ([]R, error) {
	type result struct {
		r   R
		err error
	}
	rs := runner.Map(p.sweep(), cells, func(t *runner.T, c C) result {
		r, err := fn(t, c)
		return result{r, err}
	})
	out := make([]R, len(rs))
	for i, x := range rs {
		if x.err != nil {
			return nil, x.err
		}
		out[i] = x.r
	}
	return out, nil
}

// pair is one cell of a two-axis sweep.
type pair[A, B any] struct {
	a A
	b B
}

// cross returns the cells of the sweep over as × bs in row-major order,
// bs fastest: every (a, b) for as[0], then for as[1], and so on. It is
// the one place a sweep's order is written down; a third axis is
// cross(cross(as, bs), cs).
func cross[A, B any](as []A, bs []B) []pair[A, B] {
	cells := make([]pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			cells = append(cells, pair[A, B]{a, b})
		}
	}
	return cells
}

// pivot cuts the results of a sweep over cross(keys, cols) into one
// slice per key: that key's results, in column order.
func pivot[K, V any](keys []K, vals []V) [][]V {
	rows := make([][]V, len(keys))
	w := len(vals) / len(keys)
	for i := range rows {
		rows[i], vals = vals[:w:w], vals[w:]
	}
	return rows
}

// addPivot adds one row per key to tbl: the key, then its results
// (pivot), one column each.
func addPivot[K, V any](tbl *Table, keys []K, vals []V) {
	for i, vs := range pivot(keys, vals) {
		row := []any{keys[i]}
		for _, v := range vs {
			row = append(row, v)
		}
		tbl.Add(row...)
	}
}

// ScaleError reports a Params.Scale that is not a number to scale by:
// NaN compares false against both clamps in withDefaults and ±Inf has no
// meaningful clamp, so Run refuses them rather than run every experiment
// at its floors. Finite values outside (0, 1] are still clamped.
type ScaleError struct{ Scale float64 }

func (e *ScaleError) Error() string {
	return fmt.Sprintf("experiments: scale %v is not a finite number", e.Scale)
}

func (p Params) withDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 0.1
	}
	if p.Scale > 1 {
		p.Scale = 1
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// scaleInt returns max(lo, round(n·scale)).
func (p Params) scaleInt(n, lo int) int {
	v := int(float64(n)*p.Scale + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// scaleDur returns max(lo, d·scale).
func (p Params) scaleDur(d, lo sim.Duration) sim.Duration {
	v := sim.Duration(float64(d) * p.Scale)
	if v < lo {
		v = lo
	}
	return v
}

// dedupe removes adjacent duplicates from a sorted sweep list (scaling
// can collapse two sweep points onto the same value).
func dedupe(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Experiment is one table/figure reproduction.
type Experiment struct {
	ID    string // "fig1" .. "table3"
	Title string // what the artifact shows
	Paper string // one-line summary of the paper's reported outcome
	// Run computes the artifact; its Result is printed only when the
	// error is nil.
	Run func(p Params) (Result, error)
}

var (
	registry []Experiment
	byID     = map[string]int{} // ID → index into registry
)

func register(e Experiment) {
	if _, dup := byID[e.ID]; dup {
		panic("experiments: duplicate ID " + e.ID)
	}
	byID[e.ID] = len(registry)
	registry = append(registry, e)
}

// All returns the registered experiments sorted by ID (figures first).
func All() []Experiment {
	// Precompute each sort key once instead of re-deriving it inside
	// the comparator (O(n log n) key builds → O(n)).
	keyed := make([]struct {
		key string
		e   Experiment
	}, len(registry))
	for i, e := range registry {
		keyed[i].key, keyed[i].e = idKey(e.ID), e
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	out := make([]Experiment, len(keyed))
	for i := range keyed {
		out[i] = keyed[i].e
	}
	return out
}

func idKey(id string) string {
	// figNN sorts numerically, tables after figures.
	if n, ok := numSuffix(id, "fig"); ok {
		return fmt.Sprintf("a%04d", n)
	}
	if n, ok := numSuffix(id, "table"); ok {
		return fmt.Sprintf("b%04d", n)
	}
	return "c" + id
}

// numSuffix parses ids of the form <prefix><digits> without the
// reflection cost of fmt.Sscanf.
func numSuffix(id, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok || rest == "" {
		return 0, false
	}
	n := 0
	for _, c := range []byte(rest) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	i, ok := byID[id]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// Run executes the experiment with the given ID and writes its Result
// to w. The header line goes out before the experiment runs, so a reader
// of w sees the run start at once.
func Run(id string, p Params, w io.Writer) error {
	e, ok := Get(id)
	if !ok {
		return fmt.Errorf("experiments: unknown id %q", id)
	}
	if math.IsNaN(p.Scale) || math.IsInf(p.Scale, 0) {
		return &ScaleError{Scale: p.Scale}
	}
	p = p.withDefaults()
	fmt.Fprintf(w, "== %s: %s (scale=%.2g seed=%d)\n", e.ID, e.Title, p.Scale, p.Seed)
	res, err := e.Run(p)
	if err != nil {
		return err
	}
	res.Write(w)
	return nil
}

// Result is what a run prints, in print order: its tables, and the Text
// lines around them (titles, notes, free-form sections). Every value in it
// stays a value until Write, the package's one renderer, prints it.
type Result []Block

// Block is one piece of a Result: a *Table or a Text.
type Block interface{ Write(w io.Writer) }

// Write renders every block of r to w, in order.
func (r Result) Write(w io.Writer) {
	for _, b := range r {
		b.Write(w)
	}
}

// Text is a format and the values it prints, fmt.Sprintf(Format, V...).
// In a Result it is a line of its own; in a Table it is a cell whose
// numbers print with a unit or marker: text("%.1f%%", 81.0) prints 81.0%
// and its V[0] is still 81.0.
type Text struct {
	Format string
	V      []any
}

func text(format string, v ...any) Text { return Text{format, v} }

func (x Text) String() string { return fmt.Sprintf(x.Format, x.V...) }

// Write prints x as a line of its own.
func (x Text) Write(w io.Writer) { fmt.Fprintln(w, x) }

// Table is an aligned text table of values. A cell is addressed by its
// row and its column's header name.
type Table struct {
	Header []string
	Rows   [][]any
}

// NewTable returns a table with the given column headers.
func NewTable(cols ...string) *Table { return &Table{Header: cols} }

// Add appends a row of values as they are; Write formats them.
func (t *Table) Add(vals ...any) { t.Rows = append(t.Rows, vals) }

// cell formats one value: a float64 with %.4g, anything else — an int, a
// string, a Text, a fmt.Stringer such as unit.Bytes or sim.Duration — with
// %v.
func cell(v any) string {
	if x, ok := v.(float64); ok {
		return fmt.Sprintf("%.4g", x)
	}
	return fmt.Sprint(v)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	rows := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for r, vals := range t.Rows {
		rows[r] = make([]string, len(vals))
		for i, v := range vals {
			c := cell(v)
			rows[r][i] = c
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, b.String())
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}
