// Command xpsim runs the paper-reproduction experiments: one per table
// and figure of the ExpressPass evaluation (SIGCOMM 2017).
//
// Usage:
//
//	xpsim -list
//	xpsim [-scale 0.1] [-seed 42] fig15 fig16 table3
//	xpsim -all
//	xpsim -procs 8 table3
//	xpsim -trace out.jsonl -metrics metrics.csv fig17
//	xpsim -faults 'flap@10ms+2ms; stall:s0@30ms+1ms' ext-faults-flap
//	xpsim -faults 'gemodel:credit:0.02:0.3@10ms+40ms' ext-chaos-matrix
//	xpsim -faults 'every:20ms:roll{ stall@0ms+2ms }@10ms+80ms' ext-chaos-storm
//
// Every flag (-h prints the defaults). One that only adjusts another
// ("with -x") is a usage error, exit 2, without it. Output — tables,
// traces and metrics — is byte-identical for a seed at any -procs.
//
//	-list             list experiments and exit
//	-all              run every experiment
//	-scale S          experiment scale in (0,1]: 1.0 is the paper's
//	                  configuration (hours of CPU), the default 0.1 a
//	                  laptop-fast shape check
//	-seed N           deterministic random seed
//	-procs N          worker goroutines sweep trials fan out across
//	                  (1 = serial); a run with -trace or -metrics uses
//	                  1 (N > 1 prints a note); see internal/runner
//	-shards N         ignored, kept so existing command lines parse:
//	                  intra-run sharding was removed (N > 1 prints a note)
//	-faults SPEC      fault timeline replacing the built-in one of the
//	                  ext-faults-* and ext-chaos-* experiments; grammar
//	                  in internal/faults (ParseSpec)
//
// Observability (see internal/obs):
//
//	-trace FILE       record packet/credit/queue events (.csv → CSV,
//	                  anything else → JSONL)
//	-trace-types LIST with -trace: event types to record, comma-separated
//	                  (e.g. credit_drop,qdepth,feedback)
//	-trace-rotate SZ  with -trace: segments of at most SZ bytes (k/m/g),
//	                  split at line boundaries, named FILE-00000.ext, …
//	-trace-gzip       with -trace: gzip the trace (each segment when
//	                  rotating)
//	-metrics FILE     long-format metrics CSV (t_us,scope,metric,value)
//	-metrics-interval with -metrics: sampling period in simulated time
//	-progress         per-trial heartbeats on stderr, then a resource
//	                  summary (peak RSS, events/sec, GC pauses) and the
//	                  scheduler's heap, walk-spill and tx-done counters
//	-cpuprofile FILE  Go CPU profile of the run
//	-memprofile FILE  heap profile written at exit
//
// Verification (see internal/invariant and internal/scenario):
//
//	-invariants       arm the runtime invariant checkers; any violation
//	                  prints and exits nonzero
//	-flight FILE      with -invariants: dump the trace events leading up
//	                  to the first violation
//	-flight-events N  with -flight: how many events that dump holds
//	-scenario-seed N  replay fuzz scenario N (≥ 1), invariants armed,
//	                  instead of running experiments; takes no other
//	                  flag and no experiment id
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"expresspass"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
)

// options holds the value of every flag.
type options struct {
	scale                                           float64
	seed, scenarioSeed                              uint64
	list, all, traceGzip, progress, invariants      bool
	tracePath, traceTypes, traceRotate, metricsPath string
	cpuProfile, memProfile, faultSpec, flightPath   string
	metricsIval                                     time.Duration
	procs, shards, flightEvents                     int
}

// newFlags defines xpsim's flags on fs. It is the whole command-line
// surface: TestFlagSurface holds the doc comment above and README's flag
// table to exactly this set.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.Float64Var(&o.scale, "scale", 0.1, "experiment scale in (0,1]; 1.0 = paper scale")
	fs.Uint64Var(&o.seed, "seed", 42, "deterministic random seed")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.BoolVar(&o.all, "all", false, "run every experiment")
	fs.StringVar(&o.tracePath, "trace", "", "write event trace to file (.csv or JSONL)")
	fs.StringVar(&o.traceTypes, "trace-types", "", "with -trace: comma-separated event types to trace (default all)")
	fs.StringVar(&o.traceRotate, "trace-rotate", "", "with -trace: rotate trace segments at this size (e.g. 64m; 0/empty = no rotation)")
	fs.BoolVar(&o.traceGzip, "trace-gzip", false, "with -trace: gzip-compress the trace (per segment when rotating)")
	fs.StringVar(&o.metricsPath, "metrics", "", "write metrics time-series CSV to file")
	fs.DurationVar(&o.metricsIval, "metrics-interval", time.Millisecond, "with -metrics: sampling period (simulated time)")
	fs.BoolVar(&o.progress, "progress", false, "heartbeat progress lines and a resource summary on stderr")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write CPU profile to file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write heap profile to file")
	fs.StringVar(&o.faultSpec, "faults", "",
		"fault timeline for ext-faults-*/ext-chaos-* experiments: flap, stall, loss, "+
			"gemodel, state (4-state Markov), dup, corrupt, reorder, jitter clauses plus "+
			"recurring every{...} chaos schedules, e.g. "+
			"'gemodel:credit:0.02:0.3@10ms+40ms; every:20ms:roll{ stall@0ms+2ms }@10ms+80ms'")
	fs.IntVar(&o.procs, "procs", runtime.GOMAXPROCS(0),
		"worker goroutines for sweep trials (1 = serial; output is identical either way; -trace/-metrics runs use 1)")
	fs.IntVar(&o.shards, "shards", 0,
		"ignored: intra-run sharding was removed; kept so existing command lines parse")
	fs.BoolVar(&o.invariants, "invariants", false,
		"arm the runtime invariant checkers; violations are printed and exit nonzero")
	fs.StringVar(&o.flightPath, "flight", "",
		"with -invariants: dump the last -flight-events trace events to this file on the first violation")
	fs.IntVar(&o.flightEvents, "flight-events", 4096, "with -flight: flight-recorder ring capacity")
	fs.Uint64Var(&o.scenarioSeed, "scenario-seed", 0,
		"run the fuzz scenario for this seed (with invariants armed) instead of experiments")
	return o
}

// flagNeeds maps each flag that only adjusts what another flag turns on
// to that flag.
var flagNeeds = map[string]string{
	"trace-types":      "trace",
	"trace-rotate":     "trace",
	"trace-gzip":       "trace",
	"metrics-interval": "metrics",
	"flight":           "invariants",
	"flight-events":    "flight",
}

// checkFlagNeeds rejects a command line that sets a flag (to any value)
// while the flag it adjusts is off, instead of running without what was
// asked for. Every flag in flagNeeds' values is off at its default.
func checkFlagNeeds(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		need, ok := flagNeeds[f.Name]
		if !ok || err != nil {
			return
		}
		if n := fs.Lookup(need); n.Value.String() == n.DefValue {
			err = fmt.Errorf("-%s needs -%s", f.Name, need)
		}
	})
	return err
}

// isSet reports whether the command line set the flag name.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// checkScenarioAlone rejects a command line that sets -scenario-seed
// next to any other flag or an experiment id. The scenario replay runs
// alone, with its own invariants and no outputs, so anything else asked
// for would be dropped without a word.
func checkScenarioAlone(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if !slices.Contains(set, "scenario-seed") {
		return nil
	}
	for _, name := range set {
		if name != "scenario-seed" {
			return fmt.Errorf("-%s does not combine with -scenario-seed", name)
		}
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("-scenario-seed takes no experiment id, got %q", fs.Arg(0))
	}
	return nil
}

// command is a validated command line: the flags, the experiment ids
// and what main derives from the flags before it opens any file.
type command struct {
	*options
	ids         []string
	params      expresspass.ExperimentParams
	rotateBytes int64
	traceTypes  []obs.EventType
}

// parseCommandLine is xpsim's front end: argv (program name first) in, a
// validated command or a usage error (exit 2) out, before any file is
// opened. It says why on stderr: package flag prints its own errors with
// the usage listing (and returns flag.ErrHelp for -h, which is no
// error), every other rejection is one "xpsim: " line.
func parseCommandLine(argv []string, stderr io.Writer) (c *command, err error) {
	fs := flag.NewFlagSet(argv[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := newFlags(fs)
	if err := fs.Parse(argv[1:]); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			fmt.Fprintf(stderr, "xpsim: %v\n", err)
		}
	}()
	if err := checkFlagNeeds(fs); err != nil {
		return nil, err
	}
	if err := checkScenarioAlone(fs); err != nil {
		return nil, err
	}
	if err := checkValues(o); err != nil {
		return nil, err
	}
	c = &command{options: o, ids: fs.Args(),
		params: expresspass.ExperimentParams{Scale: o.scale, Seed: o.seed, Procs: o.procs}}
	if c.rotateBytes, err = parseSize(o.traceRotate); err != nil {
		return nil, fmt.Errorf("-trace-rotate: %w", err)
	}
	if c.traceTypes, err = parseEventTypes(o.traceTypes); err != nil {
		return nil, fmt.Errorf("-trace-types: %w", err)
	}
	if o.shards > 1 {
		fmt.Fprintf(stderr, "xpsim: -shards %d ignored: intra-run sharding was removed (DESIGN.md \"One event queue per trial\")\n", o.shards)
	}
	if o.procs > 1 && (o.tracePath != "" || o.metricsPath != "") && isSet(fs, "procs") {
		fmt.Fprintf(stderr, "xpsim: -procs %d: a traced or metered run runs its trials in order on one worker\n", o.procs)
	}
	if o.faultSpec != "" {
		if c.params.Faults, err = expresspass.ParseFaultSpec(o.faultSpec); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func main() {
	o, err := parseCommandLine(os.Args, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		os.Exit(2)
	}
	if o.list {
		for _, e := range expresspass.Experiments() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	if o.scenarioSeed != 0 {
		rep := expresspass.RunScenario(o.scenarioSeed)
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

	ids := o.ids
	if o.all {
		ids = nil
		for _, e := range expresspass.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: xpsim [-scale S] [-seed N] <experiment id>... | -all | -list")
		os.Exit(2)
	}

	rt, err := buildRuntime(o.tracePath, o.traceTypes, o.metricsPath, o.metricsIval,
		o.rotateBytes, o.traceGzip, o.progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
		os.Exit(1)
	}
	o.params.Obs = rt

	var flightFile *os.File
	if o.invariants {
		opt := expresspass.InvariantOptions{}
		if o.flightPath != "" {
			flightFile, err = os.Create(o.flightPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
				os.Exit(1)
			}
			opt.FlightOut = flightFile
			opt.FlightEvents = o.flightEvents
		}
		o.params.Invariants = expresspass.NewInvariantSet(opt)
	}

	// Profiles start last: every exit above leaves no half-written
	// profile behind, and the profile covers the experiments alone.
	prof, err := obs.StartProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
		os.Exit(1)
	}

	code := 0
	for _, id := range ids {
		start := time.Now()
		if rt != nil {
			rt.SetPhase(id)
		}
		if err := expresspass.RunExperiment(id, o.params, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "xpsim: %v\n", err)
			code = 1
			break
		}
		fmt.Printf("   (%s wall)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if set := o.params.Invariants; set != nil {
		set.Finish()
		if reportInvariants(os.Stderr, set.Stats(), set.Count(), set.Violations()) {
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
		if tr := rt.Tracer(); tr != nil {
			s := rt.Totals()
			fmt.Fprintf(os.Stderr, "xpsim: traced %d events (%d sim events, peak heap %d)\n",
				tr.Count(), s.Executed, s.PeakLive)
		}
		if o.progress {
			res, rate := rt.Resources()
			fmt.Fprintf(os.Stderr,
				"xpsim: %s wall, %s sim events/s, peak RSS %s, heap %s, %d GCs (%s paused)\n",
				rt.Elapsed().Round(time.Millisecond), humanSI(rate),
				humanBytes(res.PeakRSSBytes), humanBytes(res.HeapAllocBytes),
				res.NumGC, res.GCPauseTotal.Round(time.Microsecond))
			fmt.Fprintf(os.Stderr, "xpsim: sched: %s\n", schedSummary(rt.Totals()))
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

// maxFlightEvents bounds -flight-events. Every network an armed run
// builds allocates its flight ring up front, 80 bytes an event (5 MiB
// at this bound), and the checker copies that ring once more for every
// port that holds a finding; an unbounded count asks for gigabytes
// before the first event, or panics in make.
const maxFlightEvents = 1 << 16

// checkValues rejects every numeric flag outside its range: -scale (see
// checkScale), a negative -procs, a -flight-events that is not positive
// or above maxFlightEvents, and a -metrics-interval that is not
// positive. The library would replace a value that is not positive with
// its default without a word. -procs 0 is in range: it means GOMAXPROCS,
// as Params.Procs documents.
func checkValues(o *options) error {
	if err := checkScale(o.scale); err != nil {
		return err
	}
	switch {
	case o.procs < 0:
		return fmt.Errorf("-procs must be >= 0, got %d", o.procs)
	case o.flightEvents <= 0:
		return fmt.Errorf("-flight-events must be > 0, got %d", o.flightEvents)
	case o.flightEvents > maxFlightEvents:
		return fmt.Errorf("-flight-events must be in (0, %d], got %d", maxFlightEvents, o.flightEvents)
	case o.metricsIval <= 0:
		return fmt.Errorf("-metrics-interval must be > 0, got %v", o.metricsIval)
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
// run's pops came off the calendar's heap rather than a wheel bucket's
// head, how many events a capped bucket walk sent there (same-instant
// timers armed against key order; ≈ 0 otherwise), the calendar heap's
// high-water mark and the wheel rebuilds, then how many transmitter-done
// events were reserved but never queued because no packet waited for
// them (Executed counts queued events only, so the run an eager
// scheduler would have executed is Executed plus that figure).
func schedSummary(s sim.Stats) string {
	out := fmt.Sprintf("%d heap pops (%.1f%% of %d sim events), %d walk spills, peak heap %d events, %d rebuilds",
		s.HeapPops, 100*float64(s.HeapPops)/float64(max(s.Executed, 1)), s.Executed, s.WalkSpills, s.PeakHeap, s.Rebuilds)
	if s.Reserved > 0 {
		never := s.Reserved - s.Armed
		out += fmt.Sprintf("; %d of %d tx-done events never queued (%.1f%%)",
			never, s.Reserved, 100*float64(never)/float64(s.Reserved))
	}
	return out
}

// humanBytes renders a byte count with a binary-unit suffix, picked
// after rounding so that 1 GiB − 1 prints 1.00 GiB, not 1024.0 MiB.
func humanBytes(v uint64) string {
	b := float64(v)
	switch {
	case v == 0:
		return "unknown"
	case math.Round(b/(1<<20)*10) >= 1024*10:
		return fmt.Sprintf("%.2f GiB", b/(1<<30))
	case math.Round(b/(1<<10)*10) >= 1024*10:
		return fmt.Sprintf("%.1f MiB", b/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	}
	return fmt.Sprintf("%d B", v)
}

// humanSI renders a rate with an SI suffix (k/M/G), picked after
// rounding so that 999,960 prints 1.00M, not 1000.0k.
func humanSI(v float64) string {
	switch {
	case math.Round(v/1e6*100) >= 1e5:
		return fmt.Sprintf("%.2fG", v/1e9)
	case math.Round(v/1e3*10) >= 1e4:
		return fmt.Sprintf("%.2fM", v/1e6)
	case math.Round(v) >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}

// buildRuntime assembles the obs.Runtime for the requested outputs, or
// returns nil when no output was asked for. A bare -progress still gets
// a Runtime so heartbeats and the resource summary have a home. Every
// flag value reaching it is already validated: the only errors left are
// files that cannot be created.
func buildRuntime(tracePath string, traceTypes []obs.EventType, metricsPath string, ival time.Duration,
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
		cfg.Tracer = obs.NewTracer(sink, traceTypes...)
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

// parseEventTypes parses -trace-types: "" means every type (nil), and a
// list must name at least one known type.
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
	if len(types) == 0 {
		return nil, fmt.Errorf("%q names no event type", list)
	}
	return types, nil
}
