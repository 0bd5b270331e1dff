// Command xpsim runs the paper-reproduction experiments: one per table
// and figure of the ExpressPass evaluation (SIGCOMM 2017).
//
// Usage:
//
//	xpsim -list
//	xpsim [-scale 0.1] [-seed 42] fig15 fig16 table3
//	xpsim -all
//	xpsim -procs 8 table3
//	xpsim -shards 4 fig17
//	xpsim -trace out.jsonl -metrics metrics.csv fig17
//	xpsim -faults 'flap@10ms+2ms; stall:s0@30ms+1ms' ext-faults-flap
//	xpsim -faults 'gemodel:credit:0.02:0.3@10ms+40ms' ext-chaos-matrix
//	xpsim -faults 'every:20ms:roll{ stall@0ms+2ms }@10ms+80ms' ext-chaos-storm
//
// Scale 1.0 reproduces the paper-scale configuration (hours of CPU);
// the default scale runs laptop-fast shape checks.
//
// Sweep trials fan out across -procs worker goroutines (default
// GOMAXPROCS; -procs 1 forces serial). Output — tables, traces, and
// metrics alike — is byte-identical at any worker count for the same
// seed; see internal/runner.
//
// Independently of -procs, -shards N cuts each trial's topology into up
// to N regions that run on their own event heaps and goroutines with
// conservative epoch barriers, parallelizing a single large simulation.
// Output stays byte-identical to a serial run; see internal/sim
// (ShardGroup) and internal/netem (SetShards).
//
// Observability flags (see internal/obs):
//
//	-trace FILE       record packet/credit/queue events (.csv → CSV,
//	                  anything else → JSONL)
//	-trace-types LIST comma-separated event types to record (default all;
//	                  e.g. credit_drop,qdepth,feedback)
//	-trace-rotate SZ  rotate the trace into segments of at most SZ bytes
//	                  (suffixes k/m/g accepted; segments split only at
//	                  line boundaries, named FILE-00000.ext, …)
//	-trace-gzip       gzip-compress the trace (per segment when rotating)
//	-metrics FILE     long-format metrics CSV (t_us,scope,metric,value)
//	-metrics-interval sampling period in simulated time (default 1ms)
//	-progress         per-trial heartbeat lines on stderr plus an
//	                  end-of-run resource summary (peak RSS, events/sec,
//	                  GC pauses) and the scheduler's crowded-bucket
//	                  counters (share of pops that were same-instant
//	                  timer bursts)
//	-sketch           collect FCT/gap distributions in streaming quantile
//	                  sketches (O(1) memory, ≤0.5% percentile error)
//	                  instead of retaining every sample
//	-cpuprofile FILE  Go CPU profile of the run
//	-memprofile FILE  heap profile written at exit
//	-pprof ADDR       serve net/http/pprof (e.g. localhost:6060)
//
// Verification flags (see internal/invariant and internal/scenario):
//
//	-invariants       arm the runtime invariant checkers for the run;
//	                  any violation prints and exits nonzero
//	-flight FILE      with -invariants: dump the last -flight-events
//	                  trace events leading up to the first violation
//	-flight-events N  flight-recorder ring capacity (default 4096)
//	-scenario-seed N  replay fuzz scenario N (seed ≥ 1) with all
//	                  invariants armed, instead of running experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"expresspass"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
)

func main() {
	scale := flag.Float64("scale", 0.1, "experiment scale in (0,1]; 1.0 = paper scale")
	seed := flag.Uint64("seed", 42, "deterministic random seed")
	list := flag.Bool("list", false, "list experiments and exit")
	all := flag.Bool("all", false, "run every experiment")
	tracePath := flag.String("trace", "", "write event trace to file (.csv or JSONL)")
	traceTypes := flag.String("trace-types", "", "comma-separated event types to trace (default all)")
	traceRotate := flag.String("trace-rotate", "", "rotate trace segments at this size (e.g. 64m; 0/empty = no rotation)")
	traceGzip := flag.Bool("trace-gzip", false, "gzip-compress the trace (per segment when rotating)")
	metricsPath := flag.String("metrics", "", "write metrics time-series CSV to file")
	metricsIval := flag.Duration("metrics-interval", time.Millisecond, "metrics sampling period (simulated time)")
	progress := flag.Bool("progress", false, "heartbeat progress lines and a resource summary on stderr")
	sketch := flag.Bool("sketch", false, "collect FCT/gap distributions in O(1)-memory quantile sketches")
	cpuProfile := flag.String("cpuprofile", "", "write CPU profile to file")
	memProfile := flag.String("memprofile", "", "write heap profile to file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	faultSpec := flag.String("faults", "",
		"fault timeline for ext-faults-*/ext-chaos-* experiments: flap, stall, loss, "+
			"gemodel, state (4-state Markov), dup, corrupt, reorder, jitter clauses plus "+
			"recurring every{...} chaos schedules, e.g. "+
			"'gemodel:credit:0.02:0.3@10ms+40ms; every:20ms:roll{ stall@0ms+2ms }@10ms+80ms'")
	procs := flag.Int("procs", runtime.GOMAXPROCS(0),
		"worker goroutines for sweep trials (1 = serial; output is identical either way)")
	shards := flag.Int("shards", 0,
		"intra-run topology shards per trial (0/1 = serial; output is identical at any count)")
	invariants := flag.Bool("invariants", false,
		"arm the runtime invariant checkers; violations are printed and exit nonzero")
	flightPath := flag.String("flight", "",
		"with -invariants: dump the last -flight-events trace events to this file on the first violation")
	flightEvents := flag.Int("flight-events", 4096, "flight-recorder ring capacity")
	scenarioSeed := flag.Uint64("scenario-seed", 0,
		"run the fuzz scenario for this seed (with invariants armed) instead of experiments")
	flag.Parse()

	if err := checkScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
		os.Exit(2)
	}
	expresspass.SetSweepProcs(*procs)
	expresspass.SetShards(*shards)

	if *faultSpec != "" {
		plan, err := expresspass.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
			os.Exit(2)
		}
		expresspass.SetDefaultFaultPlan(plan)
	}

	if *list {
		for _, e := range expresspass.Experiments() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	if *scenarioSeed != 0 {
		rep := expresspass.RunScenario(*scenarioSeed, expresspass.ScenarioOptions{})
		fmt.Println(rep)
		for i, v := range rep.Violations {
			if i == 16 {
				fmt.Fprintf(os.Stderr, "xpsim: ... %d more violations\n", len(rep.Violations)-16)
				break
			}
			fmt.Fprintf(os.Stderr, "xpsim: invariant violation: %s\n", v)
		}
		if len(rep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	ids := flag.Args()
	if *all {
		ids = nil
		for _, e := range expresspass.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: xpsim [-scale S] [-seed N] <experiment id>... | -all | -list")
		os.Exit(2)
	}

	prof, err := obs.StartProfiles(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
		os.Exit(1)
	}
	rotateBytes, err := parseSize(*traceRotate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: -trace-rotate: %v\n", err)
		os.Exit(2)
	}
	rt, err := buildRuntime(*tracePath, *traceTypes, *metricsPath, *metricsIval,
		rotateBytes, *traceGzip, *progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
		os.Exit(1)
	}
	if rt != nil {
		obs.SetActive(rt)
	}

	if *sketch {
		expresspass.SetFCTSketchMode(true)
	}

	var flightFile *os.File
	if *invariants {
		opt := expresspass.InvariantOptions{}
		if *flightPath != "" {
			flightFile, err = os.Create(*flightPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
				os.Exit(1)
			}
			opt.FlightOut = flightFile
			opt.FlightEvents = *flightEvents
		}
		expresspass.ArmInvariants(opt)
	}

	params := expresspass.ExperimentParams{Scale: *scale, Seed: *seed}
	code := 0
	for _, id := range ids {
		start := time.Now()
		if rt != nil {
			rt.SetPhase(id)
		}
		if err := expresspass.RunExperiment(id, params, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
			code = 1
			break
		}
		fmt.Printf("   (%s wall)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *invariants {
		expresspass.FinishArmedInvariants()
		if reportInvariants(os.Stderr, expresspass.ArmedInvariantStats(),
			expresspass.InvariantCount(), expresspass.InvariantViolations()) {
			code = 1
		}
	}

	if flightFile != nil {
		if err := flightFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
			code = 1
		}
	}
	if rt != nil {
		obs.SetActive(nil)
		if tr := rt.Tracer(); tr != nil {
			events, peak := rt.EngineTotals()
			fmt.Fprintf(os.Stderr, "xpsim: traced %d events (%d sim events, peak heap %d)\n",
				tr.Count(), events, peak)
		}
		if *progress {
			res, rate := rt.Resources()
			fmt.Fprintf(os.Stderr,
				"xpsim: %s wall, %s sim events/s, peak RSS %s, heap %s, %d GCs (%s paused)\n",
				rt.Elapsed().Round(time.Millisecond), humanSI(rate),
				humanBytes(res.PeakRSSBytes), humanBytes(res.HeapAllocBytes),
				res.NumGC, res.GCPauseTotal.Round(time.Microsecond))
			if peak := rt.PeakBufferedBytes(); peak > 0 {
				fmt.Fprintf(os.Stderr, "xpsim: peak worker trace/metrics buffers %s\n",
					humanBytes(uint64(peak)))
			}
			events, _ := rt.EngineTotals()
			fmt.Fprintf(os.Stderr, "xpsim: sched: %s\n", schedSummary(events, rt.SchedTotals()))
		}
		if err := rt.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
			code = 1
		}
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// reportInvariants prints the end-of-run invariant summary and reports
// whether the run failed: first what the verdict rests on (how much the
// checkers actually looked at, with a warning when that undercuts it),
// then the violations, or "invariants clean".
func reportInvariants(w io.Writer, st expresspass.InvariantStats, n uint64, vs []expresspass.InvariantViolation) (failed bool) {
	fmt.Fprintf(w, "xpsim: invariants: %s\n", st)
	if st.Displaced > 0 {
		fmt.Fprintf(w, "xpsim: warning: %d of %d checkers were displaced from their network's trace path before the run ended and saw only part of it\n",
			st.Displaced, st.Networks)
	}
	if st.Events == 0 {
		fmt.Fprintln(w, "xpsim: warning: the invariant checkers saw no events: nothing was checked")
	}
	if n == 0 {
		fmt.Fprintln(w, "xpsim: invariants clean")
		return false
	}
	for i, v := range vs {
		if i == 16 {
			break
		}
		fmt.Fprintf(w, "xpsim: invariant violation: %s\n", v)
	}
	fmt.Fprintf(w, "xpsim: %d invariant violations\n", n)
	return true
}

// checkScale rejects a -scale outside (0,1]. The library clamps such
// values (and treats zero as "default"), which suits a zero-value
// Params but would let a mistyped flag run a different experiment than
// the one asked for without a word. The test is a negated conjunction so
// that NaN, which fails every comparison, is rejected too.
func checkScale(s float64) error {
	if !(s > 0 && s <= 1) {
		return fmt.Errorf("-scale must be in (0,1], got %v", s)
	}
	return nil
}

// parseSize parses a byte size with an optional k/m/g suffix (case-
// insensitive, power-of-two units). Empty or "0" means zero.
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	orig, mult := s, int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q", orig)
	}
	return n * mult, nil
}

// schedSummary renders the scheduler's counters: what share of the
// run's pops were same-instant timers served from a heap-ordered
// calendar bucket and how long the longest such bucket got, then how
// many transmitter-done events were reserved but never queued because no
// packet waited for them (events counts queued events only, so the run
// an eager scheduler would have executed is events plus that figure).
func schedSummary(events uint64, s obs.SchedTotals) string {
	out := "no crowded bucket"
	if s.PeakBucket > 0 {
		out = fmt.Sprintf("%d pops from crowded buckets (%.1f%% of %d sim events), peak bucket %d events",
			s.CrowdedPops, 100*float64(s.CrowdedPops)/float64(max(events, 1)), events, s.PeakBucket)
	}
	if s.Reserved > 0 {
		never := s.Reserved - s.Armed
		out += fmt.Sprintf("; %d of %d tx-done events never queued (%.1f%%)",
			never, s.Reserved, 100*float64(never)/float64(s.Reserved))
	}
	return out
}

// humanBytes renders a byte count with a binary-unit suffix.
func humanBytes(v uint64) string {
	switch {
	case v == 0:
		return "unknown"
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%d B", v)
}

// humanSI renders a rate with an SI suffix (k/M/G).
func humanSI(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}

// buildRuntime assembles the obs.Runtime for the requested outputs, or
// returns nil when no output was asked for. A bare -progress still gets
// a Runtime so heartbeats and the resource summary have a home.
func buildRuntime(tracePath, traceTypes, metricsPath string, ival time.Duration,
	rotateBytes int64, gz, progress bool) (*obs.Runtime, error) {
	var cfg obs.Config
	if tracePath != "" {
		isCSV := strings.HasSuffix(tracePath, ".csv")
		var w io.WriteCloser
		if rotateBytes > 0 || gz {
			rcfg := obs.RotateConfig{MaxBytes: rotateBytes, Gzip: gz}
			if isCSV {
				// Each rotated segment must stand alone, so the header is
				// re-emitted at every segment start (the sink writes it to
				// the first segment itself).
				rcfg.Header = []byte(obs.CSVHeader)
			}
			rw, err := obs.NewRotatingWriter(tracePath, rcfg)
			if err != nil {
				return nil, err
			}
			w = rw
		} else {
			f, err := os.Create(tracePath)
			if err != nil {
				return nil, err
			}
			w = f
		}
		tw := &traceWriter{WriteCloser: w}
		var sink obs.Sink
		if isCSV {
			sink = obs.NewCSVSink(tw)
		} else {
			sink = obs.NewJSONLSink(tw)
		}
		types, err := parseEventTypes(traceTypes)
		if err != nil {
			sink.Close()
			return nil, err
		}
		cfg.Tracer = obs.NewTracer(sink, types...)
		tw.tracer = cfg.Tracer
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return nil, err
		}
		cfg.MetricsOut = f
		cfg.Interval = sim.FromStd(ival)
	}
	if progress {
		cfg.Progress = os.Stderr
	}
	if cfg.Tracer == nil && cfg.MetricsOut == nil && cfg.Progress == nil {
		return nil, nil
	}
	return obs.NewRuntime(cfg), nil
}

// traceWriter sits between the trace sink and its file and reports a
// failed write on stderr when it happens rather than only at exit. The
// sink latches the error and drops every later event, so the run goes
// on untraced, the line appears once, and the exit code is still set
// from Runtime.Close.
type traceWriter struct {
	io.WriteCloser
	tracer *obs.Tracer
}

func (w *traceWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: trace write failed after %d events: %v; continuing untraced\n",
			w.tracer.Count(), err)
	}
	return n, err
}

func parseEventTypes(list string) ([]obs.EventType, error) {
	if list == "" {
		return nil, nil // nil = all types
	}
	var types []obs.EventType
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		ty, ok := obs.EventTypeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown trace event type %q", name)
		}
		types = append(types, ty)
	}
	return types, nil
}
