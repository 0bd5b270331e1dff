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
	"slices"
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

// registry is every experiment, in the order All lists them: figures by
// number, then tables, then the ext-* extensions by ID.
var registry = []Experiment{
	{ID: "fig1", Run: runFig1,
		Title: "Data-queue length under partition/aggregate vs fan-out (ideal rate, DCTCP, credit)",
		Paper: "ideal & DCTCP queues grow ∝ fan-out (DCTCP worse); credit-based stays bounded"},
	{ID: "fig2", Run: runFig2,
		Title: "Convergence time: naïve credit vs CUBIC vs DCTCP (10G)",
		Paper: "naïve credit ≈ 25 µs (1 RTT); CUBIC ≈ 47 ms; DCTCP ≈ 70 ms"},
	{ID: "fig5", Run: runFig5,
		Title: "Max ToR-switch buffer vs link speed, by credit-queue size and host delay spread",
		Paper: "(8cq, 5µs): grows sublinearly 10/40→100/100; (4cq, 1µs hardware) much smaller"},
	{ID: "fig6", Run: runFig6,
		Title: "Credit-pacing jitter vs fairness (a); inter-credit gap CDF (b)",
		Paper: "perfect pacing is unfair at scale; j ≥ 0.01 restores fairness"},
	{ID: "fig8", Run: runFig8,
		Title: "Initial credit rate: convergence time (a) vs 1-packet-flow credit waste (b)",
		Paper: "α 1→1/32: convergence 2→14 RTTs; wasted credits 80→2"},
	{ID: "fig9", Run: runFig9,
		Title: "Credit queue capacity vs utilization",
		Paper: "under-utilization <1% from 8-credit queues; worse below"},
	{ID: "fig10", Run: runFig10,
		Title: "Parking-lot utilization with N bottlenecks: feedback vs naïve",
		Paper: "naïve 83.3%→60% as N grows; feedback ≈98% throughout"},
	{ID: "fig11", Run: runFig11,
		Title: "Multi-bottleneck fairness: Flow 0 throughput vs N competing flows",
		Paper: "feedback tracks max-min C/(N+1); naïve gives Flow 0 ≈C/2 regardless"},
	{ID: "fig13", Run: runFig13,
		Title: "Five staggered flows: throughput stability and queue (XP vs DCTCP)",
		Paper: "XP: stable shares, max queue 18 KB; DCTCP: oscillatory, 240.7 KB"},
	{ID: "fig14", Run: runFig14,
		Title: "Host model validation: credit-processing delay CDF (a); inter-credit gap through a switch (b)",
		Paper: "(a) median 0.38 µs, 99.99%-ile 6.2 µs; (b) RX jitter within ~0.7 µs of TX"},
	{ID: "fig15", Run: runFig15,
		Title: "Flow scalability: utilization, fairness, max queue vs concurrent flows",
		Paper: "XP ≈95% util, fair, queue ≤ ~10 KB; DCTCP collapses ≥64 flows; RCP overflows"},
	{ID: "fig16", Run: runFig16,
		Title: "Convergence time of a joining flow at 10/100 Gbps",
		Paper: "XP 3 RTTs (α=1/2), 6 RTTs (α=1/16) at both speeds; DCTCP 260→2350 RTTs; RCP 3"},
	{ID: "fig17", Run: runFig17,
		Title: "Shuffle (all-to-all) flow completion times: XP vs DCTCP",
		Paper: "DCTCP median slightly better; XP 1.51× better @99% and 6.65× at max"},
	{ID: "fig18", Run: runFig18,
		Title: "99%-ile FCT sensitivity to initial rate α and w_init (load 0.6)",
		Paper: "α=w_init=1/16 is the sweet spot: large-flow FCT drops, small-flow FCT grows <100%"},
	{ID: "fig19", Run: runFig19,
		Title: "Avg/99% FCT by size class, 5 protocols, load 0.6",
		Paper: "XP fastest for S/M across workloads; DCTCP/RCP better on L/XL"},
	{ID: "fig20", Run: runFig20,
		Title: "Credit waste ratio by workload, link speed, and α (load 0.6)",
		Paper: "waste grows as flows shrink and speed rises: 4–34% @10G, up to 60% @40G with α=1/2; α=1/16 halves it"},
	{ID: "fig21", Run: runFig21,
		Title: "Average FCT speed-up of 40G links over 10G (load 0.6)",
		Paper: "XP gains most (1.5–3.5×) except WebServer L (credit waste); DX/HULL benefit least"},
	{ID: "table1", Run: runTable1,
		Title: "Network-calculus buffer bound per port class (zero data loss)",
		Paper: "ToR down ≫ Core > ToR up; identical for fat tree and Clos; sublinear in link speed"},
	{ID: "table3", Run: runTable3,
		Title: "Average/maximum switch queue occupancy by workload and load",
		Paper: "XP avg ≤0.54 KB and max ≤50 KB, load-insensitive; others grow with load"},
	{ID: "ext-chaos-matrix", Run: runExtChaosMatrix,
		Title: "chaos: impairment matrix (loss, burst loss, dup, corrupt, reorder, jitter) × protocols",
		Paper: "credit loss is self-healing (§3.1) and duplicated credits cannot double-spend; baselines pay in FCT and retransmissions"},
	{ID: "ext-chaos-storm", Run: runExtChaosStorm,
		Title: "chaos: recurring every{} storms (flap train, rolling stalls, loss bursts) × protocols",
		Paper: "the credit loop re-converges within RTTs after each occurrence; goodput recovers to the pre-storm level"},
	{ID: "ext-classes", Run: runExtClasses,
		Title: "§7 extension: traffic classes via credit queues (strict priority, weighted)",
		Paper: "prioritizing flow A's credits over B's yields strict data priority; weights yield weighted shares"},
	{ID: "ext-dcqcn", Run: runExtDCQCN,
		Title: "RDMA comparison: ExpressPass vs DCQCN+PFC under incast",
		Paper: "§1: ECN-based RDMA CC needs PFC for zero loss and pays in pauses/queueing; credits need neither"},
	{ID: "ext-failover", Run: runExtFailover,
		Title: "§3.1 mechanism: excluding unidirectionally-failed links",
		Paper: "symmetric routing must drop both directions of a half-failed link; traffic survives on remaining paths"},
	{ID: "ext-faults-flap", Run: runExtFaultsFlap,
		Title: "robustness: bottleneck link flap, reconvergence, and goodput recovery",
		Paper: "goodput recovers to ≥99% of the pre-fault level after the flap; credit waste stays bounded"},
	{ID: "ext-faults-stall", Run: runExtFaultsStall,
		Title: "robustness: sender-side credit-processing stall (GC pause / preemption)",
		Paper: "a stalled host defers credited data without loss; aggregate goodput dips and recovers"},
	{ID: "ext-spray", Run: runExtSpray,
		Title: "§7 extension: per-packet spraying with reorder-tolerant credit accounting",
		Paper: "bounded queuing limits reordering; utilization and zero loss should survive spraying"},
	{ID: "ext-stopmargin", Run: runExtStopMargin,
		Title: "§7 extension: preemptive CREDIT_STOP to cut credit waste",
		Paper: "announcing flow end ~1 BDP early reduces per-flow credit waste without stalling flows"},
}

// All returns the experiments in registry order.
func All() []Experiment { return slices.Clone(registry) }

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
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
