package expresspass_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each benchmark executes the full experiment at a
// laptop-friendly scale and prints the same rows/series the paper
// reports (visible with `go test -bench=. -v` or in the -benchmem run's
// captured output below each benchmark name).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Reproduce a single figure at a larger scale with the CLI instead:
//
//	go run ./cmd/xpsim -scale 1 fig15

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"expresspass"
	"expresspass/internal/runner"
)

// benchExperiment runs one registered experiment per iteration and
// reports engine throughput (sim-events/sec) and the peak event-heap
// depth via custom metrics. An ObsRuntime with neither tracing nor
// metrics output is the run's purely for engine accounting, so the
// per-packet hot paths still run their nil-tracer fast path.
func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	b.ReportAllocs()
	rt := expresspass.NewObsRuntime(expresspass.ObsConfig{})
	var out bytes.Buffer
	for i := 0; i < b.N; i++ {
		out.Reset()
		err := expresspass.RunExperiment(id, expresspass.ExperimentParams{
			Scale: scale,
			Seed:  uint64(i) + 42,
			Obs:   rt,
		}, &out)
		if err != nil {
			b.Fatal(err)
		}
	}
	events, peak := rt.EngineTotals()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "sim-events/sec")
	}
	b.ReportMetric(float64(peak), "peak-heap")
	if testing.Verbose() {
		fmt.Printf("\n%s\n", out.String())
	}
}

// Queue build-up under partition/aggregate (Fig 1).
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1", 0.06) }

// Convergence: naïve credit vs CUBIC vs DCTCP (Fig 2).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2", 0.25) }

// Network-calculus ToR buffer breakdown (Fig 5).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5", 1) }

// Jitter vs fairness (Fig 6).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6", 0.06) }

// Initial rate trade-offs (Fig 8).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8", 0.25) }

// Credit queue capacity vs utilization (Fig 9).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9", 0.25) }

// Parking-lot utilization (Fig 10).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10", 0.25) }

// Multi-bottleneck fairness (Fig 11).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11", 0.12) }

// Staggered-flow convergence behaviour (Fig 13).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13", 0.05) }

// Host delay model and inter-credit gaps (Fig 14).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14", 0.5) }

// Flow scalability (Fig 15).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15", 0.12) }

// Convergence time at 10/100 Gbps (Fig 16).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16", 0.12) }

// Shuffle FCT tail (Fig 17).
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17", 0.08) }

// Parameter sensitivity (Fig 18).
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18", 0.008) }

// Realistic-workload FCT comparison (Fig 19).
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19", 0.008) }

// Credit waste (Fig 20).
func BenchmarkFig20(b *testing.B) { benchExperiment(b, "fig20", 0.008) }

// 40G-over-10G speed-up (Fig 21).
func BenchmarkFig21(b *testing.B) { benchExperiment(b, "fig21", 0.008) }

// Zero-loss buffer bounds (Table 1).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", 1) }

// Queue occupancy across workloads and loads (Table 3).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", 0.004) }

// ---- parallel sweep benches ----

// benchSweep measures a sweep-shaped experiment under the parallel
// runner: one untimed serial (-procs 1) pass establishes the baseline,
// then the timed iterations run at the default worker count. Custom
// metrics report sweep throughput (trials/sec), aggregate engine
// throughput across all workers (sim-events/sec), and wall-clock
// speedup versus the serial pass — ~1.0 on a single-core runner, and
// approaching the worker count on multi-core machines since trials are
// independent. Output is byte-identical either way (see the
// determinism gate in internal/experiments).
func benchSweep(b *testing.B, id string, scale float64) {
	b.Helper()
	b.ReportAllocs()
	rt := expresspass.NewObsRuntime(expresspass.ObsConfig{})
	p := expresspass.ExperimentParams{Scale: scale, Seed: 42, Procs: 1, Obs: rt}
	var out bytes.Buffer

	start := time.Now()
	if err := expresspass.RunExperiment(id, p, &out); err != nil {
		b.Fatal(err)
	}
	serialWall := time.Since(start)

	p.Procs = 0 // default: GOMAXPROCS workers
	trials0 := runner.TrialsRun()
	events0, _ := rt.EngineTotals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := expresspass.RunExperiment(id, p, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	trials := runner.TrialsRun() - trials0
	events, _ := rt.EngineTotals()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(trials)/sec, "trials/sec")
		b.ReportMetric(float64(events-events0)/sec, "sim-events/sec")
		b.ReportMetric(serialWall.Seconds()/(sec/float64(b.N)), "speedup-vs-serial")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkSweepFig18 fans the fig18 parameter-sensitivity grid
// (α/w_init combos × workloads) across the worker pool.
func BenchmarkSweepFig18(b *testing.B) { benchSweep(b, "fig18", 0.004) }

// BenchmarkSweepTable3 fans the table3 queue-occupancy matrix
// (4 workloads × 3 loads × 5 protocols = 60 trials) across the pool —
// the repo's widest sweep.
func BenchmarkSweepTable3(b *testing.B) { benchSweep(b, "table3", 0.002) }

// ---- ablation benches (design-choice call-outs from DESIGN.md) ----

// BenchmarkAblationFeedback contrasts the credit feedback loop against
// the naïve max-rate scheme on the multi-bottleneck fairness scenario —
// the core design choice of §3.2 (re-runs fig11, whose table contains
// both arms).
func BenchmarkAblationFeedback(b *testing.B) { benchExperiment(b, "fig11", 0.06) }

// BenchmarkAblationJitter re-runs the fig6 jitter sweep: the j=0 column
// is the no-jitter ablation of §3.1's fair-credit-drop mechanism.
func BenchmarkAblationJitter(b *testing.B) { benchExperiment(b, "fig6", 0.03) }

// BenchmarkAblationCreditQueue re-runs fig9: the 1- and 2-credit columns
// ablate the 8-credit buffer-carving choice.
func BenchmarkAblationCreditQueue(b *testing.B) { benchExperiment(b, "fig9", 0.12) }

// ---- engine microbenchmarks ----

// BenchmarkEngineEvents measures raw event throughput of the simulator
// core on a saturated 10G link.
func BenchmarkEngineEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := expresspass.NewEngine(1)
		net := expresspass.NewNetwork(eng)
		sw := net.NewSwitch("sw")
		link := expresspass.Link(10*expresspass.Gbps, 2*expresspass.Microsecond)
		a := net.NewHost("a", expresspass.HardwareNIC())
		c := net.NewHost("b", expresspass.HardwareNIC())
		net.Connect(a, sw, link)
		net.Connect(c, sw, link)
		net.BuildRoutes()
		f := expresspass.NewFlow(net, a, c, 50*expresspass.MB, 0)
		expresspass.Dial(f, expresspass.Config{BaseRTT: 20 * expresspass.Microsecond})
		eng.Run()
		b.ReportMetric(float64(eng.Executed()), "events/op")
		b.ReportMetric(float64(eng.MaxPending()), "peak-heap")
	}
}

// ---- §7 extension benches ----

// BenchmarkExtClasses evaluates QoS via prioritized/weighted credit
// queues (§7 "Multiple traffic classes").
func BenchmarkExtClasses(b *testing.B) { benchExperiment(b, "ext-classes", 0.1) }

// BenchmarkExtSpray evaluates per-packet spraying with reorder-tolerant
// credit-loss accounting (§7 "Path symmetry").
func BenchmarkExtSpray(b *testing.B) { benchExperiment(b, "ext-spray", 0.05) }

// BenchmarkExtFailover evaluates unidirectional-failure exclusion
// (§3.1 "Ensuring path symmetry").
func BenchmarkExtFailover(b *testing.B) { benchExperiment(b, "ext-failover", 0.05) }

// BenchmarkExtStopMargin evaluates the preemptive CREDIT_STOP
// (§7 credit-waste mitigation).
func BenchmarkExtStopMargin(b *testing.B) { benchExperiment(b, "ext-stopmargin", 0.1) }

// BenchmarkExtDCQCN compares ExpressPass with DCQCN-over-PFC under
// incast (the §1 RDMA positioning).
func BenchmarkExtDCQCN(b *testing.B) { benchExperiment(b, "ext-dcqcn", 0.1) }
