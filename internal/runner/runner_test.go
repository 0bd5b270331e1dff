package runner

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// TestObsMergeByteIdentical gives a run a runtime with a trace sink and
// a metrics writer, runs a traced workload under Map at several worker
// counts, and requires the merged trace and metrics bytes — plus the
// EngineTotals accounting — to be identical to the serial run. Every
// trial of a serial sweep begins as the head and streams straight into
// the runtime, so it buffers nothing. Whether a parallel trial buffers
// depends on scheduling; TestMapHeadOfLine makes that deterministic.
func TestObsMergeByteIdentical(t *testing.T) {
	t.Parallel()
	run := func(procs int) (trace, metrics string, events uint64, peak int) {
		var tb, mb bytes.Buffer
		rt := obs.NewRuntime(obs.Config{
			Tracer:     obs.NewTracer(obs.NewJSONLSink(&tb)),
			MetricsOut: &mb,
		})
		Map(Run{Procs: procs, Obs: rt}, seq(9), mergeWorkload)
		if buffered := rt.PeakBufferedBytes(); procs == 1 && buffered != 0 {
			t.Errorf("procs=1: a serial sweep buffered %d bytes, want 0 (it streams)", buffered)
		}
		events, peak = rt.EngineTotals()
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		return tb.String(), mb.String(), events, peak
	}
	st, sm, se, sp := run(1)
	for _, procs := range []int{2, 4, 0} {
		pt, pm, pe, pp := run(procs)
		if pt != st {
			t.Fatalf("procs=%d: trace bytes differ\nserial:\n%s\nparallel:\n%s", procs, st, pt)
		}
		if pm != sm {
			t.Fatalf("procs=%d: metrics bytes differ\nserial:\n%s\nparallel:\n%s", procs, sm, pm)
		}
		if pe != se || pp != sp {
			t.Fatalf("procs=%d: totals (%d,%d) != serial (%d,%d)", procs, pe, pp, se, sp)
		}
	}
	if se == 0 {
		t.Fatal("EngineTotals reported zero events — trial totals not merged")
	}
}

// mergeWorkload is a traced trial: five ticks, each emitting one trace
// event and one metrics row through the scope its engine is wired to,
// exactly as netem.NewNetwork does.
func mergeWorkload(tr *T, i int) uint64 {
	eng := tr.Engine(uint64(i) + 1)
	sc := eng.Wiring.(*netem.Wiring).Scope
	tc := sc.Tracer()
	var tick func()
	n := 0
	tick = func() {
		tc.Emit(obs.Event{T: eng.Now(), Type: obs.EvFeedback, Scope: "f", Flow: int64(i), Seq: int64(n), Val: float64(n)})
		sc.WriteRow(eng.Now(), sc.NextScope(), "m", float64(i*100+n))
		if n++; n < 5 {
			eng.After(sim.Microsecond, tick)
		}
	}
	eng.At(0, tick)
	eng.Run()
	return eng.Executed()
}

// countingSink counts what reaches the run's sink before handing it on.
type countingSink struct {
	obs.Sink
	n atomic.Int64
}

func (s *countingSink) Record(ev obs.Event) {
	s.n.Add(1)
	s.Sink.Record(ev)
}

// TestMapHeadOfLine makes the head-of-line rule deterministic: trial 0
// holds the head until trials 1–3 have run to completion on the other
// workers. Trial 0's events reach the sink while it runs (it streams);
// 1–3 begin behind it, so they buffer, and reach the sink only once
// trial 0 finishes; the bytes are the serial run's and the live buffer
// gauge returns to 0.
func TestMapHeadOfLine(t *testing.T) {
	t.Parallel()
	run := func(procs int) (trace, metrics string) {
		var tb, mb bytes.Buffer
		sink := &countingSink{Sink: obs.NewJSONLSink(&tb)}
		rt := obs.NewRuntime(obs.Config{Tracer: obs.NewTracer(sink), MetricsOut: &mb})
		var rest sync.WaitGroup
		rest.Add(3)
		Map(Run{Procs: procs, Obs: rt}, seq(4), func(tr *T, i int) uint64 {
			ex := mergeWorkload(tr, i)
			if procs == 1 {
				return ex
			}
			if i > 0 {
				rest.Done()
				return ex
			}
			if n := sink.n.Load(); n != 5 {
				t.Errorf("trial 0 sent %d events to the sink while running, want its own 5", n)
			}
			rest.Wait()
			if n := sink.n.Load(); n != 5 {
				t.Errorf("sink holds %d events once trials 1–3 ran, want trial 0's 5 (they buffer)", n)
			}
			if rt.BufferedBytes() == 0 {
				t.Error("trials 1–3 ran behind the head and buffered nothing")
			}
			return ex
		})
		if n := sink.n.Load(); n != 20 {
			t.Errorf("procs=%d: sink received %d events, want 20", procs, n)
		}
		if b := rt.BufferedBytes(); b != 0 {
			t.Errorf("procs=%d: %d bytes still buffered after the sweep", procs, b)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		return tb.String(), mb.String()
	}
	st, sm := run(1)
	if pt, pm := run(4); pt != st || pm != sm {
		t.Fatalf("head-of-line run differs from serial\ntrace:\n%s\nserial:\n%s\nmetrics:\n%s\nserial:\n%s", pt, st, pm, sm)
	}
}

// TestEngineWiring: an engine records into its own trial's scope inside
// an observed sweep and into nothing when the run is unobserved, at any
// worker count; every engine carries the run's check.
func TestEngineWiring(t *testing.T) {
	t.Parallel()
	var checked atomic.Int32
	check := func(*netem.Network) { checked.Add(1) }
	rt := obs.NewRuntime(obs.Config{MetricsOut: io.Discard})
	for _, procs := range []int{1, 2} {
		for _, run := range []Run{{Procs: procs, Check: check}, {Procs: procs, Obs: rt, Check: check}} {
			scopes := Map(run, seq(2), func(tr *T, _ int) *obs.Trial {
				w := tr.Engine(1).Wiring.(*netem.Wiring)
				w.Check(nil)
				return w.Scope
			})
			observed := run.Obs != nil
			for i, sc := range scopes {
				if (sc != nil) != observed || (observed && sc == scopes[1-i]) {
					t.Errorf("procs=%d obs=%v: trial %d's engine records into %p", procs, observed, i, sc)
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
