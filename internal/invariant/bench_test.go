package invariant_test

// Benchmarks of what arming costs. The benchmark harness's
// invariant.armed_ratio divides one armed run by one plain run of
// separate processes and reads anywhere from 0.94 to 1.33 on a shared
// host; these run the same workload in one process, so alternating
// invocations give a ratio steady to a few percent:
//
//	for i in 1 2 3 4 5; do go test -run '^$' -bench 'Armed|CheckerRecord' -benchtime 3x ./internal/invariant; done
//
// and take the fastest plain and the fastest armed reading.

import (
	"io"
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/experiments"
	"expresspass/internal/invariant"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// BenchmarkArmed runs the shuffle-armed workload of the benchmark
// harness (fig17 at scale 0.2, seed 7: a 10-host star, all-to-all,
// ExpressPass then DCTCP, 360 flows through the lifecycle manager) with
// no tracer at all and with the invariant checkers armed. armed ÷ plain
// is the price of leaving the checkers on.
func BenchmarkArmed(b *testing.B) {
	run := func(b *testing.B, set *invariant.Set) {
		p := experiments.Params{Scale: 0.2, Seed: 7, Procs: 1, Invariants: set}
		if err := experiments.Run("fig17", p, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("armed", func(b *testing.B) {
		set := invariant.NewSet(invariant.Options{})
		for i := 0; i < b.N; i++ {
			run(b, set)
			set.Finish()
		}
		if n := set.Count(); n != 0 {
			b.Fatalf("%d invariant violations", n)
		}
		b.ReportMetric(float64(set.Stats().Events)/float64(b.N), "checked/op")
	})
}

// recordRig is the network BenchmarkCheckerRecord captures from and
// replays against: a dumbbell of four ExpressPass flows.
func recordRig() (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(7)
	return eng, topology.NewDumbbell(eng, 4, topology.Config{})
}

// BenchmarkCheckerRecord replays the complete, unfiltered event stream
// of a real run through a checker attached to a fresh copy of the
// network it came from — Record alone, no simulation around it. It
// reports ns per delivered event (the same quantity as the harness's
// invariant.record_ns, unsubscribed types included) and allocations per
// replay, which is the per-port and per-flow state and nothing per
// event.
func BenchmarkCheckerRecord(b *testing.B) {
	eng, d := recordRig()
	ring := obs.NewRingSink(1 << 20)
	d.Net.SetTracer(obs.NewTracer(ring))
	for i := range d.Senders {
		core.Dial(transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 2*unit.MB, 0), core.Config{})
	}
	eng.Run()
	events := ring.Events()
	if ring.Total() != uint64(len(events)) {
		b.Fatalf("ring kept %d of %d events", len(events), ring.Total())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, fresh := recordRig()
		ck := invariant.Attach(fresh.Net, invariant.Options{
			OnViolation: func(v invariant.Violation) { b.Fatalf("replay raised %s", v) },
		})
		b.StartTimer()
		for _, ev := range events {
			ck.Record(ev)
		}
		b.StopTimer()
		if got := ck.Finish(); len(got) != 0 {
			b.Fatalf("replay raised %v", got)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}
