package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"expresspass/internal/invariant"
	"expresspass/internal/obs"
	"expresspass/internal/unit"
)

// gateScale holds the per-experiment scale used by the determinism
// gate: small enough that the gate runs in CI time, large enough that
// every experiment executes multiple sweep trials.
var gateScale = map[string]float64{
	"fig1":           0.03,
	"fig2":           0.1,
	"fig5":           1,
	"fig6":           0.03,
	"fig8":           0.1,
	"fig9":           0.1,
	"fig10":          0.1,
	"fig11":          0.06,
	"fig13":          0.03,
	"fig14":          0.25,
	"fig15":          0.06,
	"fig16":          0.06,
	"fig17":          0.03,
	"fig18":          0.004,
	"fig19":          0.004,
	"fig20":          0.004,
	"fig21":          0.004,
	"table1":         1,
	"table3":         0.002,
	"ext-classes":    0.05,
	"ext-spray":      0.03,
	"ext-failover":   0.03,
	"ext-stopmargin": 0.05,
	"ext-dcqcn":      0.05,

	// Fault-injection experiments: the timelines floor at a few ms of
	// simulated time regardless of scale, so a small scale suffices.
	"ext-faults-flap":  0.06,
	"ext-faults-loss":  0.06,
	"ext-faults-stall": 0.06,

	// Chaos-impairment experiments: like the fault timelines, their
	// runtimes floor at a few ms of simulated time per trial.
	"ext-chaos-matrix": 0.06,
	"ext-chaos-storm":  0.06,
}

// gateHeavy marks the realistic-workload experiments whose cost is
// dominated by per-trial floors (≈150 flows/trial) rather than Scale,
// so each serial arm takes tens of seconds even at microscopic scale.
// They are still gated — `make gate` (XPSIM_GATE_ALL=1) runs the full
// registry — but skipped in the default `go test ./...` budget.
var gateHeavy = map[string]bool{
	"fig18":  true,
	"fig19":  true,
	"fig20":  true,
	"fig21":  true,
	"table3": true,
}

// gateAnalytic marks the experiments that compute from the network
// calculus alone: they build no network, so their armed runs check none.
var gateAnalytic = map[string]bool{"table1": true, "fig5": true}

// gateWorkers returns the parallel arm's worker count: at least 4 so
// the worker pool, trial buffering, and submission-order merge are
// genuinely exercised even on single-core CI runners (where
// GOMAXPROCS(0) == 1 would degenerate to the serial path).
func gateWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 4 {
		return w
	}
	return 4
}

// gateModes is the execution-mode matrix: every way xpsim can run an
// experiment other than the serial reference (-procs 1). Each row must
// reproduce the reference byte for byte.
var gateModes = []struct {
	name  string
	procs int // sweep-trial worker pool width
}{
	// Trials fan out across the worker pool (wider than 4 on hosts with
	// more cores) and merge in submission order.
	{"procs4", gateWorkers()},
}

// runAt runs one experiment as the run p describes.
func runAt(t *testing.T, id string, p Params) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := Run(id, p, &out); err != nil {
		t.Fatalf("procs=%d: %v", p.Procs, err)
	}
	return out.Bytes()
}

// gateSumsFile pins the serial reference of every experiment: one
// "id  sha256" line per experiment, the digest of its stdout at
// gateScale, seed 42. The mode matrix proves the modes agree with each
// other; this file proves they agree with the commit that last wrote it,
// so a change that promises "every output byte unchanged" is checked
// against its parent at no extra run time. A change that means to move
// output rewrites it with
//
//	XPSIM_GATE_ALL=1 go test -run TestModeMatrixByteIdentical -timeout 30m ./internal/experiments -update
//
// (without XPSIM_GATE_ALL the heavy rows keep their committed digests).
const gateSumsFile = "testdata/gate.sha256"

var updateGateSums = flag.Bool("update", false, "rewrite "+gateSumsFile+" from this run's serial reference outputs")

// readGateSums parses gateSumsFile into id → hex digest.
func readGateSums(t *testing.T) map[string]string {
	t.Helper()
	sums := map[string]string{}
	data, err := os.ReadFile(gateSumsFile)
	if err != nil {
		if *updateGateSums && os.IsNotExist(err) {
			return sums
		}
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			sums[f[0]] = f[1]
		}
	}
	return sums
}

// writeGateSums rewrites gateSumsFile in registry order.
func writeGateSums(t *testing.T, sums map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, e := range All() {
		if sum, ok := sums[e.ID]; ok {
			b.WriteString(e.ID + "  " + sum + "\n")
		}
	}
	if err := os.WriteFile(gateSumsFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestModeMatrixByteIdentical is the determinism gate: every registered
// experiment runs once serially as the reference, then once per row of
// gateModes, and each row's output must match the reference byte for
// byte at the same seed; the reference itself must match the digest
// committed in gateSumsFile. Every run is armed with its experiment's
// own invariant set, so the gate doubles as a paper-property audit of
// every registered experiment in every mode: arming must neither change
// any output byte nor surface a single violation. Each experiment is a
// run of its own, so the experiments run concurrently.
func TestModeMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism gate runs every experiment twice")
	}
	t.Parallel()
	all := os.Getenv("XPSIM_GATE_ALL") != ""
	sums := readGateSums(t)
	var sumsMu sync.Mutex // -update writes sums from concurrent rows
	if *updateGateSums {
		t.Cleanup(func() { writeGateSums(t, sums) })
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if gateHeavy[e.ID] && !all {
				t.Skip("heavy realistic workload; run via `make gate` (XPSIM_GATE_ALL=1)")
			}
			t.Parallel()
			scale, ok := gateScale[e.ID]
			if !ok {
				scale = 0.01 // new experiments are gated by default
			}
			set := invariant.NewSet(invariant.Options{})
			p := Params{Scale: scale, Seed: 42, Procs: 1, Invariants: set}
			serial := runAt(t, e.ID, p)
			digest := sha256.Sum256(serial)
			got := hex.EncodeToString(digest[:])
			sumsMu.Lock()
			want, ok := sums[e.ID]
			if *updateGateSums {
				sums[e.ID], want, ok = got, got, true
			}
			sumsMu.Unlock()
			if !ok {
				t.Errorf("no digest for %s in %s; add one with -update", e.ID, gateSumsFile)
			} else if got != want {
				t.Errorf("serial stdout sha256 %s, %s has %s: output differs from the commit that wrote the file (rerun with -update if that is intended)\n%s",
					got, gateSumsFile, want, serial)
			}
			for _, m := range gateModes {
				t.Run(m.name, func(t *testing.T) {
					q := p
					q.Procs = m.procs
					got := runAt(t, e.ID, q)
					if !bytes.Equal(serial, got) {
						t.Errorf("output differs between serial and -procs %d\nserial:\n%s\n%s:\n%s",
							m.procs, serial, m.name, got)
					}
				})
			}
			// Flush positional (queue/delay) findings and release the
			// experiment's networks.
			set.Finish()
			if st := set.Stats(); (st.Networks == 0) != gateAnalytic[e.ID] || st.Displaced != 0 {
				t.Errorf("armed runs: %s, %d displaced; every network a run builds must reach its set", st, st.Displaced)
			}
			if n := set.Count(); n != 0 {
				for i, v := range set.Violations() {
					if i == 8 {
						break
					}
					t.Errorf("invariant violation: %s", v)
				}
				t.Errorf("%d invariant violations with checkers armed", n)
			}
		})
	}
}

// TestModeMatrixObsByteIdentical is the obs variant of the gate: a
// traced, metered experiment runs serially and once per row of
// gateModes, and stdout, the trace — produced through the per-trial
// buffering path netem actually uses — and the metrics CSV must match
// the serial run byte for byte. Every run has its own runtime and set,
// so the rows run concurrently.
//
// The serial reference runs unarmed and every other run is armed, so the
// rows also prove that arming changes no trace byte: the checker sits on
// the tee in front of the run's or the trial's tracer, subscribed to the
// union of its own types and the trace's. The filtered row does the same
// serially and at the pool width under a -trace-types filter of three
// types the checker does not read, where that union is narrower than
// "everything" and the displaced tracer has to filter again.
func TestModeMatrixObsByteIdentical(t *testing.T) {
	t.Parallel()
	run := func(t *testing.T, procs int, armed bool, types ...obs.EventType) (out, trace, metrics string) {
		var tb, mb bytes.Buffer
		rt := obs.NewRuntime(obs.Config{
			Tracer:     obs.NewTracer(obs.NewJSONLSink(&tb), types...),
			MetricsOut: &mb,
		})
		p := Params{Scale: 0.05, Seed: 42, Procs: procs, Obs: rt}
		if armed {
			p.Invariants = invariant.NewSet(invariant.Options{})
		}
		ob := runAt(t, "ext-classes", p)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if set := p.Invariants; set != nil {
			set.Finish()
			for _, v := range set.Violations() {
				t.Errorf("invariant violation: %s", v)
			}
			if st := set.Stats(); st.Events == 0 || st.Displaced != 0 {
				t.Errorf("armed row checked too little: %s, %d displaced", st, st.Displaced)
			}
		}
		return string(ob), tb.String(), mb.String()
	}
	compare := func(t *testing.T, procs int, so, st, sm, mo, mt, mm string) {
		t.Helper()
		if mo != so {
			t.Errorf("-procs %d: stdout differs from the unarmed serial run under tracing", procs)
		}
		if mt != st {
			t.Errorf("-procs %d: trace bytes differ from the unarmed serial run", procs)
		}
		if mm != sm {
			t.Errorf("-procs %d: metrics bytes differ from the unarmed serial run", procs)
		}
	}
	so, st, sm := run(t, 1, false)
	if st == "" {
		t.Error("trace is empty — experiment emitted no events through the trial scope")
	}
	for _, m := range gateModes {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			mo, mt, mm := run(t, m.procs, true)
			compare(t, m.procs, so, st, sm, mo, mt, mm)
		})
	}
	t.Run("filtered", func(t *testing.T) {
		t.Parallel()
		filter := []obs.EventType{obs.EvQueueDepth, obs.EvFeedback, obs.EvCreditDrop}
		fo, ft, fm := run(t, 1, false, filter...)
		if ft == "" || len(ft) >= len(st) {
			t.Fatalf("filtered trace is %d bytes, unfiltered %d", len(ft), len(st))
		}
		// Armed, serially — the checker's tee in front of the run's own
		// tracer — and at the pool width, in front of each trial's buffer.
		for _, procs := range []int{1, gateWorkers()} {
			mo, mt, mm := run(t, procs, true, filter...)
			compare(t, procs, fo, ft, fm, mo, mt, mm)
		}
	})
}

// TestConcurrentRunsStayApart runs two different runs in one process at
// the same time: a traced, armed ext-classes at the pool width and a
// plain serial fig9. Each must print what it prints alone, the trace
// must hold ext-classes' events and no others, and the armed run's set
// must hold exactly what it holds when that run is alone — a one-frame
// queue bound makes it find something — so nothing of fig9's networks
// reached it.
func TestConcurrentRunsStayApart(t *testing.T) {
	t.Parallel()
	type result struct {
		out, trace string
		set        *invariant.Set
		err        error
	}
	classes := func(procs int, armed bool) (r result) {
		var tb, out bytes.Buffer
		rt := obs.NewRuntime(obs.Config{Tracer: obs.NewTracer(obs.NewJSONLSink(&tb))})
		p := Params{Scale: 0.05, Seed: 42, Procs: procs, Obs: rt}
		if armed {
			r.set = invariant.NewSet(invariant.Options{QueueBound: unit.MaxFrame})
			p.Invariants = r.set
		}
		if r.err = Run("ext-classes", p, &out); r.err == nil {
			r.err = rt.Close()
		}
		if r.set != nil {
			r.set.Finish()
		}
		r.out, r.trace = out.String(), tb.String()
		return r
	}
	fig9 := func() (r result) {
		var out bytes.Buffer
		r.err = Run("fig9", Params{Scale: 0.1, Seed: 42, Procs: 1}, &out)
		r.out = out.String()
		return r
	}
	ref, solo, refFig9 := classes(1, false), classes(1, true), fig9()

	var armed, plain result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); armed = classes(gateWorkers(), true) }()
	go func() { defer wg.Done(); plain = fig9() }()
	wg.Wait()

	for _, r := range []result{ref, solo, refFig9, armed, plain} {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if armed.out != ref.out || armed.trace != ref.trace {
		t.Error("the armed run's stdout or trace differs from its serial reference")
	}
	if plain.out != refFig9.out {
		t.Error("the plain fig9 run's stdout differs from its serial reference")
	}
	if solo.set.Count() == 0 {
		t.Fatal("a one-frame queue bound found nothing on ext-classes: the test proves nothing")
	}
	if got, want := armed.set.Stats(), solo.set.Stats(); got != want {
		t.Errorf("armed set checked %+v, alone %+v", got, want)
	}
	if got, want := sortedViolations(armed.set), sortedViolations(solo.set); !slices.Equal(got, want) {
		t.Errorf("armed set holds %d violations, alone %d", len(got), len(want))
	}
}

// sortedViolations lists a set's violations in a worker-count-free order.
func sortedViolations(set *invariant.Set) []string {
	var out []string
	for _, v := range set.Violations() {
		out = append(out, v.String())
	}
	slices.Sort(out)
	return out
}
