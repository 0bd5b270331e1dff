package runner

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// seq returns the cells 0, 1, …, n-1: a sweep whose bodies read their
// trial's index.
func seq(n int) []int {
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	return cells
}

func TestMapPreservesSubmissionOrder(t *testing.T) {
	t.Parallel()
	for _, procs := range []int{1, 4} {
		got := Map(Run{Procs: procs}, seq(100), func(_ *T, i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("procs=%d: out[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	t.Parallel()
	var ran [64]atomic.Int32
	Map(Run{Procs: 8}, seq(len(ran)), func(_ *T, i int) struct{} {
		ran[i].Add(1)
		return struct{}{}
	})
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	t.Parallel()
	if got := Map(Run{}, seq(0), func(_ *T, i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map(0) returned %d results", len(got))
	}
}

// TestEngineDeterminismAcrossWorkerCounts runs the same seeded
// simulation workload at 1 and GOMAXPROCS workers and requires
// identical per-trial results: the byte-identity guarantee in miniature.
func TestEngineDeterminismAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	run := func(procs int) []uint64 {
		return Map(Run{Procs: procs}, seq(16), func(tr *T, i int) uint64 {
			eng := tr.Engine(uint64(i) + 7)
			rng := eng.Rand()
			var sum uint64
			var tick func()
			n := 0
			tick = func() {
				sum = sum*31 + rng.Uint64()
				if n++; n < 50 {
					eng.After(sim.Microsecond, tick)
				}
			}
			eng.At(0, tick)
			eng.Run()
			return sum + eng.Executed()
		})
	}
	serial := run(1)
	parallel := run(0) // default = GOMAXPROCS
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

// TestMapPropagatesLowestIndexPanic: trials 2 and 9 panic; the sweep
// re-panics trial 2's value with the stack of the closure that panicked,
// on one worker and on four. A panic stops the pool from starting
// another trial, so on one worker trial 9 never starts.
func TestMapPropagatesLowestIndexPanic(t *testing.T) {
	t.Parallel()
	for _, procs := range []int{1, 4} {
		var started [16]atomic.Bool
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("procs=%d: no panic propagated", procs)
				}
				s, _ := r.(string)
				if !strings.Contains(s, "trial 2 panicked: bad trial 2") {
					t.Fatalf("procs=%d: panic %v, want trial 2's", procs, r)
				}
				if !strings.Contains(s, "TestMapPropagatesLowestIndexPanic.func") {
					t.Fatalf("procs=%d: panic message lacks the panicking closure's frame:\n%s", procs, s)
				}
			}()
			Map(Run{Procs: procs}, seq(len(started)), func(_ *T, i int) int {
				started[i].Store(true)
				if i == 2 || i == 9 {
					panic(fmt.Sprintf("bad trial %d", i))
				}
				return i
			})
		}()
		if procs == 1 && started[9].Load() {
			t.Fatal("procs=1: trial 9 started after trial 2 panicked")
		}
	}
}

// TestObsMergeByteIdentical: a traced and metered run writes, at every
// Procs, exactly the lines its trials emit in trial order, pinned here
// line by line (a traced run is serial at any Procs, Run.workers, so a
// comparison with the Procs 1 run would compare the serial run with
// itself). A -progress-only run keeps its workers: its engine totals
// must be the sum of its trials' at every worker count.
func TestObsMergeByteIdentical(t *testing.T) {
	t.Parallel()
	const trials, ticks = 9, 5
	var wantTrace, wantMetrics strings.Builder
	wantMetrics.WriteString("t_us,scope,metric,value\n")
	for i := range trials {
		for n := range ticks {
			fmt.Fprintf(&wantTrace, `{"t_us":%d,"ev":"feedback","scope":"f","flow":%d,"seq":%d,"bytes":0,"val":%d,"aux":0,"aux2":0}`+"\n", n, i, n, n)
			fmt.Fprintf(&wantMetrics, "%d,t%d.%d,m,%d\n", n, i, n, i*100+n)
		}
	}
	procsArms := []int{1, 2, 4, 0}
	for _, procs := range procsArms {
		var tb, mb bytes.Buffer
		rt := obs.NewRuntime(obs.Config{
			Tracer:     obs.NewTracer(obs.NewJSONLSink(&tb)),
			MetricsOut: &mb,
		})
		Map(Run{Procs: procs, Obs: rt}, seq(trials), mergeWorkload)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if tb.String() != wantTrace.String() {
			t.Fatalf("procs=%d: trace bytes\n%s\nwant\n%s", procs, tb.String(), wantTrace.String())
		}
		if mb.String() != wantMetrics.String() {
			t.Fatalf("procs=%d: metrics bytes\n%s\nwant\n%s", procs, mb.String(), wantMetrics.String())
		}
	}
	var serial sim.Stats
	for _, procs := range procsArms {
		rt := obs.NewRuntime(obs.Config{Progress: io.Discard})
		var executed uint64
		for _, n := range Map(Run{Procs: procs, Obs: rt}, seq(trials), mergeWorkload) {
			executed += n
		}
		totals := rt.Totals()
		if totals.Executed != executed || executed == 0 {
			t.Fatalf("procs=%d: totals count %d executed events, the trials %d", procs, totals.Executed, executed)
		}
		if procs == 1 {
			serial = totals
		} else if totals != serial {
			t.Fatalf("procs=%d: totals %+v != serial %+v", procs, totals, serial)
		}
	}
}

// mergeWorkload is a traced trial: five ticks a microsecond apart, each
// emitting one trace event and one metrics row into the runtime its
// engine is wired to, as netem.NewNetwork's ports and sampler do. Each
// tick also sleeps a little of wall time, so trials that ran on several
// workers would overlap and interleave their lines.
func mergeWorkload(tr *T, i int) uint64 {
	eng := tr.Engine(uint64(i) + 1)
	w := eng.Wiring.(*netem.Wiring)
	tc := w.Obs.Tracer()
	var tick func()
	n := 0
	tick = func() {
		if tc != nil {
			tc.Emit(obs.Event{T: eng.Now(), Type: obs.EvFeedback, Scope: "f", Flow: int64(i), Seq: int64(n), Val: float64(n)})
		}
		w.Obs.WriteRow(eng.Now(), fmt.Sprintf("t%d.%d", w.Trial, n), "m", float64(i*100+n))
		time.Sleep(50 * time.Microsecond)
		if n++; n < 5 {
			eng.After(sim.Microsecond, tick)
		}
	}
	eng.At(0, tick)
	eng.Run()
	return eng.Executed()
}

// TestObservedMapRunsInOrder: a run that writes a trace or a metrics
// CSV runs its trials one at a time, in cell order, whatever its Procs;
// a -progress-only run and an unobserved one keep their workers, so
// trial 0 can wait for trial 1.
func TestObservedMapRunsInOrder(t *testing.T) {
	t.Parallel()
	for name, cfg := range map[string]obs.Config{
		"trace":   {Tracer: obs.NewTracer(obs.NewJSONLSink(io.Discard))},
		"metrics": {MetricsOut: io.Discard},
	} {
		rt := obs.NewRuntime(cfg)
		var inFlight atomic.Int32
		var mu sync.Mutex
		var order []int
		Map(Run{Procs: 4, Obs: rt}, seq(8), func(_ *T, i int) int {
			if n := inFlight.Add(1); n != 1 {
				t.Errorf("%s: trial %d runs with %d trials in flight, want 1", name, i, n)
			}
			time.Sleep(time.Millisecond)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			inFlight.Add(-1)
			return i
		})
		if fmt.Sprint(order) != fmt.Sprint(seq(8)) {
			t.Errorf("%s: trials ran in order %v, want %v", name, order, seq(8))
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, rt := range map[string]*obs.Runtime{
		"progress": obs.NewRuntime(obs.Config{Progress: io.Discard}),
		"nil":      nil,
	} {
		second := make(chan struct{})
		Map(Run{Procs: 2, Obs: rt}, seq(2), func(_ *T, i int) int {
			if i == 1 {
				close(second)
				return i
			}
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Errorf("%s: trial 1 did not run while trial 0 waited for it", name)
			}
			return i
		})
	}
}

// TestEngineWiring: an engine carries its own trial's wiring — the
// run's runtime (nil when the run is unobserved), its trial's index and
// the run's check — at any worker count.
func TestEngineWiring(t *testing.T) {
	t.Parallel()
	var checked atomic.Int32
	check := func(*netem.Network) { checked.Add(1) }
	rt := obs.NewRuntime(obs.Config{MetricsOut: io.Discard})
	for _, procs := range []int{1, 2} {
		for _, run := range []Run{{Procs: procs, Check: check}, {Procs: procs, Obs: rt, Check: check}} {
			wirings := Map(run, seq(2), func(tr *T, _ int) *netem.Wiring {
				w := tr.Engine(1).Wiring.(*netem.Wiring)
				w.Check(nil)
				return w
			})
			for i, w := range wirings {
				if w.Obs != run.Obs || w.Trial != i || w == wirings[1-i] {
					t.Errorf("procs=%d obs=%v: trial %d's engine is wired to %+v", procs, run.Obs != nil, i, *w)
				}
			}
		}
	}
	if n := checked.Load(); n != 8 {
		t.Errorf("the run's check ran %d times, want 8", n)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsScopeLabels: each metered network's rows carry its trial's
// index and its place among that trial's networks, whichever engine of
// the trial it was built on.
func TestMetricsScopeLabels(t *testing.T) {
	t.Parallel()
	var mb bytes.Buffer
	rt := obs.NewRuntime(obs.Config{MetricsOut: &mb})
	Map(Run{Obs: rt}, seq(2), func(tr *T, i int) int {
		for seed := uint64(1); seed <= 2; seed++ {
			eng := tr.Engine(seed)
			netem.NewNetwork(eng)
			eng.Run() // the sampler's one tick writes the engine gauges
		}
		return i
	})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	var scopes []string
	for _, line := range strings.Split(mb.String(), "\n")[1:] {
		if f := strings.Split(line, ","); len(f) == 4 && !slices.Contains(scopes, f[1]) {
			scopes = append(scopes, f[1])
		}
	}
	if want := []string{"t0.0", "t0.1", "t1.0", "t1.1"}; !slices.Equal(scopes, want) {
		t.Errorf("metrics scopes %q, want %q", scopes, want)
	}
}

// TestPanickingTrialStillCounts: a trial that panics after running an
// engine still has its events in the run's totals — on one worker and on
// two — because runTrial folds its engines in its deferred recover.
func TestPanickingTrialStillCounts(t *testing.T) {
	t.Parallel()
	for _, procs := range []int{1, 2} {
		rt := obs.NewRuntime(obs.Config{Progress: io.Discard})
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("procs=%d: trial 1's panic was not re-panicked", procs)
				}
			}()
			Map(Run{Procs: procs, Obs: rt}, seq(2), func(tr *T, i int) int {
				if i == 1 {
					eng := tr.Engine(1)
					for k := 1; k <= 3; k++ {
						eng.After(sim.Duration(k)*sim.Nanosecond, func() {})
					}
					eng.Run()
					panic("trial 1 fails after its run")
				}
				return i
			})
		}()
		if n := rt.Totals().Executed; n != 3 {
			t.Errorf("procs=%d: %d events in the totals, want trial 1's 3", procs, n)
		}
	}
}

// TestPacketPoolSafeUnderParallelTrials runs 64 trials on 8 workers
// (under -race via `make check`). Each builds its own network and churns
// packets through its pool: some straight back, the rest across a link
// into an endpoint that recycles them. Every trial must end with its own
// pool at zero — no count reaches across trials.
func TestPacketPoolSafeUnderParallelTrials(t *testing.T) {
	t.Parallel()
	type result struct {
		live      int64
		delivered int
	}
	res := Map(Run{Procs: 8}, seq(64), func(tr *T, i int) result {
		eng := tr.Engine(uint64(i))
		net := netem.NewNetwork(eng)
		a := net.NewHost("a", netem.HardwareNICDelay())
		b := net.NewHost("b", netem.HardwareNICDelay())
		net.Connect(a, b, netem.PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond})
		pool := net.Pool()
		var r result
		b.Register(1, endpointFunc(func(p *packet.Packet) {
			r.delivered++
			pool.Put(p)
		}))
		var churn func()
		n := 0
		churn = func() {
			held := make([]*packet.Packet, 16)
			for k := range held {
				p := pool.Get()
				p.Flow, p.Seq = 1, int64(k)
				p.Src, p.Dst, p.Wire = a.ID(), b.ID(), 1538
				held[k] = p
			}
			for _, p := range held[:8] {
				pool.Put(p)
			}
			for _, p := range held[8:] {
				a.Send(p)
			}
			if n++; n < 20 {
				eng.After(20*sim.Microsecond, churn)
			}
		}
		eng.At(0, churn)
		eng.Run()
		r.live = pool.Live()
		return r
	})
	for i, r := range res {
		if r.live != 0 || r.delivered != 160 {
			t.Errorf("trial %d: %d packets live, %d of 160 delivered", i, r.live, r.delivered)
		}
	}
}

type endpointFunc func(*packet.Packet)

func (f endpointFunc) OnPacket(p *packet.Packet) { f(p) }
