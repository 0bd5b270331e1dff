// Package runner executes sweeps of independent simulation trials
// across a pool of worker goroutines while keeping every observable
// output byte-identical to a serial run.
//
// Every experiment in the repo is a sweep of independent trials — a
// jitter grid, a flow-count series, a load×workload matrix — and each
// trial builds its own sim.Engine, topology, and seed. A sweep is a
// slice of cells, one per trial, each the value its trial reads
// (a flow count, a protocol, a pair of them). Nothing couples the
// trials except the order their results are printed in, so the runner
// fans the bodies out across worker goroutines and reassembles the
// outputs in cell order.
//
// The determinism contract is simple and strict:
//
//   - A trial must create its engines through T.Engine (same seeds it
//     would use serially). Engines are seeded, single-goroutine, and
//     share no state, so a trial computes the same result on any
//     worker.
//   - Results (Map) come back in cell order, never completion order; a
//     trial that prints returns what it prints as its result.
//   - Every network records into its trial's scope (obs.Trial), the one
//     instrumentation scope there is. The lowest trial not yet replayed
//     streams into the run's obs.Runtime; a trial that begins behind it
//     buffers and is replayed as soon as every trial before it has
//     finished, so trace and metrics files are byte-identical at any
//     worker count too, and a serial sweep buffers nothing.
//
// What a sweep needs of its run — the worker count, the obs runtime and
// the per-network check — arrives as a Run value with every call; the
// package holds no setting of its own. There is one code path for any
// worker count: Run.Procs 1 runs every trial on the caller, in order;
// cmd/xpsim exposes it as -procs. A run that builds one network is a
// one-trial sweep like any other.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
)

// Run is what a sweep needs of the run it belongs to. The zero value is
// an unobserved, unchecked run on runtime.GOMAXPROCS(0) workers.
type Run struct {
	// Procs is the worker-pool width, the caller included: 1 runs the
	// sweep inline, 0 (or less) means runtime.GOMAXPROCS(0).
	Procs int
	// Obs, when non-nil, is the run's instrumentation runtime: each
	// trial records into a scope of it (obs.Trial).
	Obs *obs.Runtime
	// Check, when non-nil, runs on every network built on a trial's
	// engines (invariant.Set.Attach). Trials call it concurrently.
	Check func(*netem.Network)
}

// workers returns the effective worker count.
func (r Run) workers() int {
	if r.Procs > 0 {
		return r.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// T is the per-trial context handed to sweep bodies.
type T struct {
	wiring netem.Wiring
}

// newT returns a trial's context: networks built on its engines record
// into tr (nil when the run is unobserved) and are checked as the run
// asks.
func (r Run) newT(tr *obs.Trial) *T {
	return &T{wiring: netem.Wiring{Scope: tr, Check: r.Check}}
}

// Engine returns a fresh deterministic engine for seed, wired to the
// trial: networks built on it route their tracer and metrics through the
// trial's scope and are checked as the run asks, and the engine counts
// in the run's engine totals whether or not it carries a network. Trial
// bodies must use this instead of sim.New — with the seeds the serial
// code used — or their networks would be neither observed nor checked.
// It is the only place a run wires an engine.
func (t *T) Engine(seed uint64) *sim.Engine {
	eng := sim.New(seed)
	eng.Wiring = &t.wiring
	if tr := t.wiring.Scope; tr != nil {
		tr.AttachEngine(eng)
	}
	return eng
}

// Map runs fn for every cell and returns the results in cell order.
// Bodies run concurrently on run's workers, the calling goroutine being
// the last of them, so one worker runs every trial inline and in order;
// fn must confine itself to trial-local state plus read-only captures. A
// panicking trial stops the pool from starting another and is
// re-panicked — lowest index first, with its stack — on the calling
// goroutine after the pool drains.
func Map[C, R any](run Run, cells []C, fn func(t *T, c C) R) []R {
	out := make([]R, len(cells))
	trials(run, len(cells), func(t *T, i int) { out[i] = fn(t, cells[i]) })
	return out
}

// trials is Map's worker pool, kept apart from its types so that the
// binary holds one copy of it, not one per kind of cell and result: it
// runs body for trials 0 … n-1.
func trials(run Run, n int, body func(t *T, i int)) {
	if run.Obs != nil {
		run.Obs.StartSweep(n)
	}
	panics := make([]string, n)
	var stop atomic.Bool
	var next atomic.Int64
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			runTrial(panics, &stop, run, body, i)
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < min(run.workers(), n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, p := range panics {
		if p != "" {
			panic(fmt.Sprintf("runner: trial %d panicked: %s", i, p))
		}
	}
}

// runTrial runs trial i and finishes its scope, whether or not the body
// panics; Finish is what replays it into the run in cell order.
func runTrial(panics []string, stop *atomic.Bool, run Run, body func(t *T, i int), i int) {
	var tr *obs.Trial
	defer func() {
		if r := recover(); r != nil {
			panics[i] = fmt.Sprintf("%v\n%s", r, debug.Stack())
			stop.Store(true)
		}
		if tr != nil {
			tr.Finish()
		}
	}()
	if run.Obs != nil {
		tr = run.Obs.BeginTrial(i)
	}
	body(run.newT(tr), i)
}
