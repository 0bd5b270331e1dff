package experiments

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"expresspass/internal/invariant"
	"expresspass/internal/lifecycle"
	"expresspass/internal/obs"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// TestLifecycleRetirementClearsLiveState drives a small Poisson workload
// through the lifecycle manager with metrics active and checks that
// retirement actually releases every piece of per-flow live state: the
// metrics registry holds no flow/* gauges, the network's flow table
// holds no endpoint, and the network passes the standard post-drain
// invariant audit, its packet pool back to zero.
func TestLifecycleRetirementClearsLiveState(t *testing.T) {
	t.Parallel()
	p := Params{Obs: obs.NewRuntime(obs.Config{MetricsOut: io.Discard})}
	runner.Map(p.sweep(), []uint64{42}, func(tr *runner.T, seed uint64) struct{} {
		eng := tr.Engine(seed)
		st := topology.NewStar(eng, 8, topology.Config{LinkRate: 10 * unit.Gbps})
		rtt := 30 * sim.Microsecond
		env := &Env{Eng: eng, Net: st.Net, BaseRTT: rtt, XP: evalXP()}
		specs, err := workload.Poisson(eng.Rand().Fork(), workload.PoissonConfig{
			Hosts: 8, Dist: workload.WebServer(), Load: 0.4,
			RefRate: 80 * unit.Gbps, Flows: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Per-flow gauges are named flow/<id>/…, and every flow/ metric
		// is one.
		perFlowGauge := func(name string) bool { return strings.HasPrefix(name, "flow/") }
		sawGauges := false
		mgr := lifecycle.NewManager(lifecycle.Config{
			Engine: eng,
			Specs:  specs,
			Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
				f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
				h := env.Dial(ProtoExpressPass, f)
				if !sawGauges {
					for _, m := range st.Net.Metrics().Snapshot() {
						if perFlowGauge(m.Name) {
							sawGauges = true
							break
						}
					}
				}
				return f, h
			},
			Grace: 10 * rtt,
		})
		mgr.Start()
		eng.RunUntil(specs[len(specs)-1].Start + 4*sim.Second)

		if mgr.Live() != 0 || mgr.Finished() != len(specs) {
			t.Fatalf("live=%d finished=%d/%d", mgr.Live(), mgr.Finished(), len(specs))
		}
		if !sawGauges {
			t.Error("no per-flow gauges ever registered — the leak check below is vacuous")
		}
		for _, m := range st.Net.Metrics().Snapshot() {
			if perFlowGauge(m.Name) {
				t.Errorf("gauge %q survived retirement", m.Name)
			}
		}
		if n := st.Net.ActiveEndpoints(); n != 0 {
			t.Errorf("flow table still holds %d endpoints", n)
		}
		for _, v := range invariant.CheckDrained(st.Net) {
			t.Errorf("post-drain: %v", v)
		}
		return struct{}{}
	})
}

// TestRunFlowsFoldsEveryDialedFlowOnce cuts a run short: its deadline
// falls after the short flows have retired, while the long flows are
// still sending and before the late specs start. The driver must fold
// every dialed flow exactly once, whether the reaper retired it during
// the run or it was a straggler folded after, and must fold no spec it
// never dialed.
func TestRunFlowsFoldsEveryDialedFlowOnce(t *testing.T) {
	t.Parallel()
	eng := sim.New(7)
	st := topology.NewStar(eng, 8, topology.Config{LinkRate: 10 * unit.Gbps})
	env := &Env{Eng: eng, Net: st.Net, BaseRTT: 30 * sim.Microsecond, XP: evalXP()}
	const deadline = 5*sim.Millisecond + 500*sim.Microsecond
	var specs []workload.FlowSpec
	for i := 0; i < 12; i++ { // done within a millisecond: retired
		specs = append(specs, workload.FlowSpec{Src: 1 + i%7, Dst: 0, Size: 8 * unit.KB,
			Start: sim.Time(i) * 50 * sim.Microsecond})
	}
	for i := 0; i < 3; i++ { // 8 MB takes 6.4 ms at line rate: unfinished
		specs = append(specs, workload.FlowSpec{Src: 1 + i, Dst: 4 + i, Size: 8 * unit.MB,
			Start: sim.Millisecond})
	}
	for i := 0; i < 4; i++ { // start after the deadline: never dialed
		specs = append(specs, workload.FlowSpec{Src: 1 + i, Dst: 0, Size: 8 * unit.KB,
			Start: deadline + sim.Time(i+1)*sim.Millisecond})
	}
	dialable := 15

	folds := map[*transport.Flow]int{}
	var retired, stragglers, unfinished, done int
	finished := env.runFlows(ProtoExpressPass, st.Hosts, specs, deadline, func(f *transport.Flow, _ lifecycle.Handle) {
		folds[f]++
		if f.StartAt > deadline {
			t.Errorf("flow %d starting at %v was folded: it starts after the %v deadline", f.ID, f.StartAt, deadline)
		}
		if eng.Now() < deadline {
			retired++
		} else {
			stragglers++
		}
		if f.Finished {
			done++
		} else {
			unfinished++
		}
	})
	if len(folds) != dialable {
		t.Errorf("folded %d distinct flows, want the %d dialed", len(folds), dialable)
	}
	for f, n := range folds {
		if n != 1 {
			t.Errorf("flow %d folded %d times", f.ID, n)
		}
	}
	if retired == 0 || stragglers == 0 || unfinished == 0 {
		t.Errorf("retired %d, stragglers %d (%d unfinished): the run must end with both kinds", retired, stragglers, unfinished)
	}
	if finished != done {
		t.Errorf("runFlows reports %d finished, the fold saw %d", finished, done)
	}
}

// TestLifecycleRSSGate is the memory-regression gate: one scale-0.5
// realistic cell (~47k WebServer flows, 10–20 s) must peak under
// 36 MB of RSS. With lazy dialing and retirement the footprint tracks the
// few hundred concurrently-active flows, not the run total: it reads
// 18 MB, so the budget fails a doubling. The FCT collectors retain 8
// bytes per finished flow, under 0.4 MB of it.
//
// It runs under XPSIM_GATE_ALL, and alone — `make bench-gate` gives it a
// process of its own — because VmHWM counts the whole process: any test
// that ran before it in the same binary raises the reading.
func TestLifecycleRSSGate(t *testing.T) {
	const (
		scale    = 0.5
		budgetMB = 36
	)
	if os.Getenv("XPSIM_GATE_ALL") == "" {
		t.Skip("lifecycle RSS gate: set XPSIM_GATE_ALL=1 and run it alone (make bench-gate)")
	}
	p := Params{Scale: scale, Seed: 42}
	rc := realisticCfg{
		proto: ProtoExpressPass, dist: workload.WebServer(), load: 0.6,
		linkRate: 10 * unit.Gbps,
	}
	start := time.Now()
	// One cell of fig18's shape, not the whole experiment.
	res := runner.Map(p.sweep(), []realisticCfg{rc}, func(rt *runner.T, rc realisticCfg) realisticResult {
		return runRealistic(rt, p, rc)
	})[0]
	r := obs.ReadResources()
	rssMB := float64(r.PeakRSSBytes) / (1 << 20)
	t.Logf("scale=%g webserver fin=%d/%d (requested %d) wall=%s peakRSS=%.0f MB",
		p.Scale, res.finished, res.total, res.requested, time.Since(start).Round(time.Second), rssMB)
	if res.finished != res.total {
		t.Errorf("only %d of %d flows finished", res.finished, res.total)
	}
	if r.PeakRSSBytes == 0 {
		t.Log("VmHWM unavailable; skipping RSS budget check")
	} else if rssMB > budgetMB {
		t.Errorf("peak RSS %.0f MB exceeds budget %d MB", rssMB, budgetMB)
	}
}
