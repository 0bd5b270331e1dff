// Command bench is the repository's benchmark: it builds cmd/xpsim,
// drives it as a child process over a fixed set of workloads, checks
// what it printed, and reports host time and memory per workload
// (end to end) or the cost of each simulator layer (-trace 1).
//
//	bash bench/run.sh -workload shuffle -seed 7 -seconds 22 -trace 0
//	bash bench/run.sh              # every workload, end to end and per layer
//	bash bench/run.sh -selfcheck   # two end-to-end sets, compared against the bounds
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupLaunches is the size of one block of set-up samples; a
// measurement takes one block before its first repetition and one after
// its last.
const setupLaunches = 60

// passes is how many interleaved slices a measurement of the whole set
// gives each workload (selfcheck, and an invocation without -workload):
// round-robin over the workloads, order reversed on the middle pass, so
// that every workload's samples span the whole set and a slow minute of
// the host falls on all of them alike.
const passes = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) fail(out io.Writer, format string, args ...any) {
	r.Failed++
	fmt.Fprintf(out, "  FAILED: "+format+"\n", args...)
}

type options struct {
	seed    uint64
	seconds float64
	smoke   bool
}

func main() {
	var opt options
	name := flag.String("workload", "", "workload to run (default: every workload, -trace 0 then 1)")
	flag.Uint64Var(&opt.seed, "seed", 42, "workload seed, handed to xpsim as -seed")
	flag.Float64Var(&opt.seconds, "seconds", 22, "how long one end-to-end measurement repeats its workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "measure every workload end to end twice and compare against the bounds")
	flag.BoolVar(&opt.smoke, "smoke", false, "one repetition at minimum scale: exercises the harness, measures nothing")
	flag.Parse()

	if err := realMain(os.Stdout, *name, *trace, *selfcheck, opt); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func realMain(out io.Writer, name string, trace int, selfcheck bool, opt options) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	w, known := workloadByName(name)
	if name != "" && !known {
		return fmt.Errorf("unknown workload %q", name)
	}
	h, err := newHarness(out, opt)
	if err != nil {
		return err
	}

	// Failed operations are reported in the result line (correct: false);
	// the exit code is non-zero only when no result could be produced.
	switch {
	case selfcheck:
		return h.selfcheck()
	case name == "":
		for i, m := range h.measureSet() {
			h.printEndToEnd(workloads[i], m)
		}
		for _, w := range workloads {
			h.perLayer(w)
		}
	case trace == 0:
		m := &e2e{}
		h.sample(w, m, opt.seconds)
		m.summarise()
		h.printEndToEnd(w, m)
	default:
		h.perLayer(w)
	}
	return nil
}

type harness struct {
	root, xpsim string
	opt         options
	out         io.Writer
	host        *reference
	shared      *sharedLayers // measured once per invocation, by perLayer
}

// newHarness finds the repository and builds the simulator from it.
func newHarness(out io.Writer, opt options) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	xpsim, err := goBuild(root, root, "xpsim", "./cmd/xpsim")
	if err != nil {
		return nil, err
	}
	return &harness{root: root, xpsim: xpsim, opt: opt, out: out, host: newReference()}, nil
}

// args returns w's xpsim arguments; -smoke swaps in the minimum scale.
func (h *harness) args(w workload, extra ...string) []string {
	args := append(append(append([]string(nil), extra...), w.mode...), w.args...)
	if h.opt.smoke {
		for i, a := range args {
			if a == "-scale" {
				args[i+1] = "0.01"
			}
		}
	}
	return serialArgs(h.opt.seed, args...)
}

// e2e holds every sample of one end-to-end measurement of one workload.
type e2e struct {
	samples map[string][]float64 // by metric name
	ref     []float64            // reference loop, ms
	factor  float64              // host factor: nominal ÷ fastest reference sample
	sha     string
	result
}

func (m *e2e) add(name string, v float64) {
	if m.samples == nil {
		m.samples = map[string][]float64{}
	}
	m.samples[name] = append(m.samples[name], v)
}

// sample repeats w for about seconds and adds what it saw to m. One
// operation is one xpsim run; it fails on a non-zero exit, on output that
// fails w's checks, or on result lines that differ from the first
// repetition's.
func (h *harness) sample(w workload, m *e2e, seconds float64) {
	args := h.args(w)
	start := time.Now()
	setupBlock := func() bool {
		for i := 0; i < setupLaunches; i++ {
			s, err := setupSample(h.xpsim, args)
			if err != nil {
				m.Attempted++
				m.fail(h.out, "set-up launch: %v", err)
				return false
			}
			m.add(mSetup, s)
		}
		return true
	}
	if !setupBlock() {
		return
	}
	block := time.Since(start).Seconds()

	// Repeat while another repetition as slow as the slowest so far, and
	// the closing set-up block, still end inside the budget.
	slowest := 0.0
	for first := true; first || time.Since(start).Seconds()+slowest+block <= seconds; first = false {
		repStart := time.Now()
		m.ref = append(m.ref, h.host.sampleMs())
		r := runChild(h.xpsim, childEnv, args)
		m.Attempted++
		lines, err := checkRun(w, r)
		sha := outputSHA(lines)
		switch {
		case err != nil:
			m.fail(h.out, "%s rep %d: %v", w.name, m.Attempted, err)
		case m.sha != "" && sha != m.sha:
			m.fail(h.out, "%s rep %d: result lines differ from the first repetition", w.name, m.Attempted)
		default:
			m.add(mWall, r.wall)
			m.add(mCPU, r.cpu)
			m.add(mRSS, r.rssMB)
			m.sha = sha
		}
		if m.Failed > 0 || h.opt.smoke {
			return
		}
		if d := time.Since(repStart).Seconds(); d > slowest {
			slowest = d
		}
	}
	m.ref = append(m.ref, h.host.sampleMs())
	setupBlock()
}

// summarise turns m's samples into the metrics of the result line.
// Time is the fastest repetition: what a neighbour on a shared host adds
// to a run is never negative, so the minimum is the steadiest estimate of
// the program's own time; set-up is the fastest launch for the same
// reason. Memory is a median. The run times are then multiplied by the
// host factor, which makes them seconds of a host on which the reference
// loop takes its nominal time: the minimum cannot remove a slow phase of
// the host that lasts longer than the measurement, and the reference's
// own minimum over the same minutes can. Set-up is not scaled: the
// fastest of 120 launches of 2 ms is as steady without (README.md has the
// measured spreads of each choice).
func (m *e2e) summarise() {
	m.factor = refNominalMs / fastest(m.ref)
	m.Metrics = map[string]metric{}
	for _, e := range e2eMetrics {
		v := median(m.samples[e.name])
		if e.fastest {
			v = fastest(m.samples[e.name])
		}
		if e.scaled {
			v *= m.factor
		}
		m.Metrics[e.name] = metric{v, e.unit}
	}
}

// measureSet measures every workload end to end, interleaved: each gets
// a third of -seconds on each of three round-robin passes.
func (h *harness) measureSet() []*e2e {
	set := make([]*e2e, len(workloads))
	for i := range set {
		set[i] = &e2e{}
	}
	n := passes
	if h.opt.smoke {
		n = 1
	}
	for pass := 0; pass < n; pass++ {
		for k := range workloads {
			i := k
			if pass%2 == 1 {
				i = len(workloads) - 1 - k
			}
			h.sample(workloads[i], set[i], h.opt.seconds/float64(n))
		}
	}
	for _, m := range set {
		m.summarise()
	}
	return set
}

func (h *harness) printEndToEnd(w workload, m *e2e) {
	fmt.Fprintf(h.out, "== %s  end to end  seed=%d  xpsim %v\n", w.name, h.opt.seed, h.args(w))
	for _, e := range e2eMetrics {
		samples, how := m.samples[e.name], "median"
		if e.fastest {
			how = "fastest"
		}
		if e.scaled {
			how += " × host factor"
		}
		fmt.Fprintf(h.out, "  %-12s %12.6f %-3s  %s of %d (raw: min %.6f, median %.6f, spread %.1f%%)\n",
			e.name, m.Metrics[e.name].Value, e.unit, how, len(samples), fastest(samples), median(samples), 100*spread(samples))
	}
	fmt.Fprintf(h.out, "  wall seconds per rep: %.3f\n", m.samples[mWall])
	fmt.Fprintf(h.out, "  host reference: fastest %.2f ms of %d samples (nominal %.2f ms, factor %.4f, spread %.1f%%)\n",
		fastest(m.ref), len(m.ref), refNominalMs, m.factor, 100*spread(m.ref))
	fmt.Fprintf(h.out, "  runs_attempted %d  runs_failed %d  output_sha256 %s\n", m.Attempted, m.Failed, m.sha)
	m.result.finish(h.out)
}

// finish rejects metrics that are not finite numbers (a measurement
// that collected no sample), then prints the result line.
func (r *result) finish(out io.Writer) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail(out, "%s has no value", name)
			r.Metrics[name] = metric{0, m.Unit}
		}
	}
	r.Correct = r.Failed == 0
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // only NaN and Inf make Marshal fail, and they are gone
	}
	fmt.Fprintf(out, "%s\n", line)
}

// selfcheck measures the end-to-end set twice, back to back, and fails
// when any pair of values of one metric on one workload differs by more
// than half that metric's bound, or the simulator's output differs: the
// benchmark's own proof that its bounds are wider than this host's noise.
func (h *harness) selfcheck() error {
	bounds, err := readBounds(filepath.Join(h.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	sets := [2][]*e2e{h.measureSet(), h.measureSet()} // each indexed like workloads
	bad := 0
	fmt.Fprintf(h.out, "%-16s %-12s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "diff", "limit")
	for i, w := range workloads {
		a, b := sets[0][i], sets[1][i]
		for _, e := range e2eMetrics {
			va, vb, limit := a.Metrics[e.name].Value, b.Metrics[e.name].Value, bounds[e.name]/2
			verdict := ""
			if !withinBound(va, vb, limit) {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Fprintf(h.out, "%-16s %-12s %12.6f %12.6f %+7.1f%% %7.1f%%%s\n",
				w.name, e.name, va, vb, 100*worsening(va, vb), 100*limit, verdict)
		}
		if a.sha != b.sha {
			fmt.Fprintf(h.out, "%-16s output_sha256 differs: %s vs %s\n", w.name, a.sha, b.sha)
			bad++
		}
		bad += a.Failed + b.Failed
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside half their bound, or failed runs", bad)
	}
	fmt.Fprintln(h.out, "selfcheck: every pair within half its bound")
	return nil
}

// readBounds returns each end-to-end metric's regression bound as
// BENCHMARK.json declares it.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
