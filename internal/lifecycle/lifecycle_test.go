package lifecycle_test

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/lifecycle"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

const testRTT = 30 * sim.Microsecond

func xpConfig() core.Config {
	return core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16, BaseRTT: testRTT}
}

// testSpecs returns specs deliberately out of start order (the manager
// must sort them) across a handful of host pairs.
func testSpecs(n int, hosts int) []workload.FlowSpec {
	specs := make([]workload.FlowSpec, n)
	for i := range specs {
		// Reversed starts: spec 0 arrives last.
		specs[i] = workload.FlowSpec{
			Src:   1 + i%(hosts-1),
			Dst:   0,
			Size:  20 * unit.KB,
			Start: sim.Time(n-i) * 50 * sim.Microsecond,
		}
	}
	return specs
}

func TestManagerLifecycle(t *testing.T) {
	eng := sim.New(1)
	st := topology.NewStar(eng, 8, topology.Config{LinkRate: 10 * unit.Gbps})
	const n = 30
	specs := testSpecs(n, 8)

	var dialTimes []sim.Time
	var retires int
	mgr := lifecycle.NewManager(lifecycle.Config{
		Engine: eng,
		Specs:  specs,
		Dial: func(s workload.FlowSpec, idx int) (*transport.Flow, lifecycle.Handle) {
			if idx != len(dialTimes) {
				t.Errorf("dial idx %d out of order (want %d)", idx, len(dialTimes))
			}
			if eng.Now() != s.Start {
				t.Errorf("dial %d at %v, want arrival time %v", idx, eng.Now(), s.Start)
			}
			dialTimes = append(dialTimes, eng.Now())
			f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
			return f, core.Dial(f, xpConfig())
		},
		Class: func(f *transport.Flow) string { return workload.SizeClass(f.Size) },
		OnRetire: func(f *transport.Flow, h lifecycle.Handle) {
			if !f.Finished {
				t.Error("OnRetire saw an unfinished flow")
			}
			if !h.Quiesced() {
				t.Error("OnRetire saw a non-quiesced handle")
			}
			retires++
		},
	})
	mgr.Start()
	eng.RunUntil(sim.Second)

	if len(dialTimes) != len(specs) {
		t.Errorf("dialed=%d, want every spec (%d)", len(dialTimes), len(specs))
	}
	if mgr.Finished() != n {
		t.Errorf("finished=%d, want %d", mgr.Finished(), n)
	}
	if mgr.Live() != 0 || retires != n {
		t.Errorf("live=%d, OnRetire ran %d times, want 0/%d", mgr.Live(), retires, n)
	}
	// Dials must follow sorted arrival order even though the input specs
	// were reversed.
	for i := 1; i < len(dialTimes); i++ {
		if dialTimes[i] < dialTimes[i-1] {
			t.Fatalf("dial %d at %v before dial %d at %v", i, dialTimes[i], i-1, dialTimes[i-1])
		}
	}
	// All 20 KB flows bucket into one class with every FCT observed.
	d := mgr.FCTs()["M"]
	if d == nil || d.N() != n {
		t.Errorf("class M accumulator: %+v, want %d observations", d, n)
	}
	// With everything retired, the reaper stopped re-arming itself and
	// the heap drained — a run-to-drain driver terminates without polling.
	if eng.Pending() != 0 {
		t.Errorf("%d events still pending after drain; reaper kept re-arming", eng.Pending())
	}
}

// TestManagerPreservesOnFinish checks the manager chains, not replaces,
// a dial-time OnFinish hook (the ideal-rate oracle relies on this).
func TestManagerPreservesOnFinish(t *testing.T) {
	eng := sim.New(1)
	st := topology.NewStar(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
	fired := 0
	mgr := lifecycle.NewManager(lifecycle.Config{
		Engine: eng,
		Specs: []workload.FlowSpec{
			{Src: 1, Dst: 0, Size: 10 * unit.KB, Start: 5 * sim.Microsecond},
		},
		Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
			f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
			f.OnFinish = func(*transport.Flow) { fired++ }
			return f, core.Dial(f, xpConfig())
		},
	})
	mgr.Start()
	eng.RunUntil(sim.Second)
	if fired != 1 {
		t.Errorf("pre-existing OnFinish fired %d times, want 1", fired)
	}
	if mgr.Finished() != 1 {
		t.Errorf("finished=%d, want 1", mgr.Finished())
	}
}

func TestManagerStragglersStayLive(t *testing.T) {
	eng := sim.New(1)
	st := topology.NewStar(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
	mgr := lifecycle.NewManager(lifecycle.Config{
		Engine: eng,
		Specs: []workload.FlowSpec{
			{Src: 1, Dst: 0, Size: 100 * unit.MB, Start: 0},
		},
		Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
			f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
			return f, core.Dial(f, xpConfig())
		},
	})
	mgr.Start()
	// Far too short for 100 MB at 10 Gbps: the flow must still be live.
	eng.RunUntil(2 * sim.Millisecond)
	if mgr.Finished() != 0 || mgr.Live() != 1 {
		t.Errorf("fin=%d live=%d, want 0/1", mgr.Finished(), mgr.Live())
	}
	seen := 0
	mgr.ForEachLive(func(f *transport.Flow, h lifecycle.Handle) {
		seen++
		if f.Finished {
			t.Error("straggler reported finished")
		}
		h.Retire() // drivers may force teardown after folding
	})
	if seen != 1 {
		t.Errorf("ForEachLive visited %d flows, want 1", seen)
	}
}

func TestManagerEmptySpecs(t *testing.T) {
	eng := sim.New(1)
	mgr := lifecycle.NewManager(lifecycle.Config{
		Engine: eng,
		Dial: func(workload.FlowSpec, int) (*transport.Flow, lifecycle.Handle) {
			t.Fatal("Dial called with no specs")
			return nil, nil
		},
	})
	mgr.Start()
	eng.RunUntil(sim.Millisecond)
	if mgr.Live() != 0 || eng.Pending() != 0 {
		t.Error("empty manager must drain immediately")
	}
}

func TestManagerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	eng := sim.New(1)
	dial := func(workload.FlowSpec, int) (*transport.Flow, lifecycle.Handle) { return nil, nil }
	mustPanic("nil engine", func() { lifecycle.NewManager(lifecycle.Config{Dial: dial}) })
	mustPanic("nil dial", func() { lifecycle.NewManager(lifecycle.Config{Engine: eng}) })
	mustPanic("double start", func() {
		m := lifecycle.NewManager(lifecycle.Config{Engine: eng, Dial: dial})
		m.Start()
		m.Start()
	})
	mustPanic("nil dial result", func() {
		m := lifecycle.NewManager(lifecycle.Config{Engine: eng, Dial: dial,
			Specs: []workload.FlowSpec{{Src: 0, Dst: 1, Size: 1}}})
		m.Start()
		eng.RunUntil(sim.Millisecond)
	})
}
