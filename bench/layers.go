package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// layerMetric is one per-layer metric; fromProbes marks the ones the
// bench/layers binary measures (the rest come from extra xpsim runs).
type layerMetric struct {
	name, unit string
	fromProbes bool
}

// layerMetrics lists every per-layer metric in print order; the layer is
// the name's prefix, a module under internal/. BENCHMARK.json declares
// the same names and units (golden_test.go).
var layerMetrics = []layerMetric{
	{"sim.push_pop_ns.1k", "ns", true},
	{"sim.push_pop_ns.64k", "ns", true},
	{"sim.resched_ns", "ns", true},
	{"sim.allocs_per_event", "count", true},
	{"sim.events", "count", false},
	{"sim.peak_pending", "count", false},
	{"sim.ns_per_event", "ns", false},
	{"sim.shards2_speedup", "x", false},
	{"runner.procs2_speedup", "x", false},
	{"netem.nextport_ns.1", "ns", true},
	{"netem.nextport_ns.4", "ns", true},
	{"netem.nextport_ns.16", "ns", true},
	{"netem.chain_ns_per_event", "ns", true},
	{"netem.chain_allocs_per_event", "count", true},
	{"netem.build_routes_ms.scaled", "ms", true},
	{"netem.build_routes_ms.paper", "ms", true},
	{"topology.build_ms.scaled", "ms", true},
	{"topology.build_ms.paper", "ms", true},
	{"workload.poisson_ns_per_flow", "ns", true},
	{"core.ns_per_pkt", "ns", true},
	{"core.dial_ns", "ns", true},
	{"transport.ns_per_pkt.dctcp", "ns", true},
	{"transport.ns_per_pkt.rcp", "ns", true},
	{"lifecycle.dial_reap_ns", "ns", true},
	{"lifecycle.live_peak", "count", true},
	{"obs.emit_ns.ring", "ns", true},
	{"obs.emit_ns.jsonl", "ns", true},
	{"obs.emit_ns.csv", "ns", true},
	{"obs.bytes_per_event.jsonl", "B", true},
	{"obs.bytes_per_event.csv", "B", true},
	{"obs.trace_events", "count", false},
	{"obs.traced_ratio", "x", false},
	{"invariant.record_ns", "ns", true},
	{"invariant.armed_ratio", "x", false},
	{"stats.dist_add_ns", "ns", true},
	{"stats.p99_ms.100k", "ms", true},
	{"runtime.gc_count", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"topology.span_s", "s", true},
	{"workload.span_s", "s", true},
	{"lifecycle.span_s", "s", true},
	{"sim.run_span_s", "s", true},
	{"stats.span_s", "s", true},
	{"trace.overhead_pct", "%", true},
	{"host.ref_ms", "ms", false},
	{"host.ref_spread", "%", false},
}

// sharedLayers is the part of the per-layer metrics that does not depend
// on the workload: the probes of the bench/layers binary and the two mode
// taxes. It is measured once per invocation and reported with every
// workload.
type sharedLayers struct {
	val       map[string]float64
	attempted int
	failures  []string
}

// layerRun executes xpsim once for a per-layer number, after a sample of
// the reference loop.
func (h *harness) layerRun(ref *[]float64, env, args []string) run {
	*ref = append(*ref, h.host.sampleMs())
	return runChild(h.xpsim, env, args)
}

func (h *harness) sharedLayerMetrics(ref *[]float64) *sharedLayers {
	if h.shared != nil {
		return h.shared
	}
	s := &sharedLayers{val: map[string]float64{}}
	h.shared = s
	failf := func(format string, args ...any) { s.failures = append(s.failures, fmt.Sprintf(format, args...)) }

	// The probes are built with -tags benchlayers, so a change to an
	// internal signature breaks only this half: say why they are missing
	// and carry on with what xpsim alone can tell.
	s.attempted++
	probes, err := h.runProbes()
	if err != nil {
		failf("layers: unavailable: %v", err)
	}
	for _, lm := range layerMetrics {
		if v, ok := probes[lm.name]; ok && lm.fromProbes {
			s.val[lm.name] = v
		} else if lm.fromProbes && err == nil {
			failf("layers binary did not report %s", lm.name)
		}
	}

	// Mode taxes, measured on the shuffle: the traced and the armed
	// workload against the same scale and experiment without the mode.
	for _, tax := range []struct{ metric, workload string }{
		{"obs.traced_ratio", "shuffle-traced"}, {"invariant.armed_ratio", "shuffle-armed"},
	} {
		taxed, _ := workloadByName(tax.workload)
		plain := taxed
		plain.mode = nil
		p := h.layerRun(ref, childEnv, h.args(plain))
		t := h.layerRun(ref, childEnv, h.args(taxed))
		s.attempted += 2
		if p.err != nil || t.err != nil {
			failf("%s: %v %v", tax.metric, p.err, t.err)
			continue
		}
		s.val[tax.metric] = t.wall / p.wall
	}
	return s
}

// perLayer measures every per-layer metric for w: the shared part above,
// then extra xpsim runs of w for the numbers only the whole program can
// give.
func (h *harness) perLayer(w workload) {
	res := result{Metrics: map[string]metric{}}
	val := map[string]float64{}
	var ref []float64
	fmt.Fprintf(h.out, "== %s  per layer  seed=%d\n", w.name, h.opt.seed)

	shared := h.sharedLayerMetrics(&ref)
	res.Attempted += shared.attempted
	for _, f := range shared.failures {
		res.fail(h.out, "%s", f)
	}
	for name, v := range shared.val {
		val[name] = v
	}

	xpsim := func(what string, env []string, args []string) (run, []string, bool) {
		r := h.layerRun(&ref, env, args)
		res.Attempted++
		if r.err != nil {
			res.fail(h.out, "%s: %v: %s", what, r.err, r.stderr)
			return r, nil, false
		}
		return r, resultLines(r.stdout), true
	}

	// The counted run: w with -progress, and a tracer that records one
	// rare event type when w has none, so xpsim prints its exact event
	// count and peak pending set. The filter costs a few per cent, so
	// time per event is taken from the serial run below.
	extra := []string{"-progress"}
	if !w.traced {
		extra = append(extra, "-trace", "/dev/null", "-trace-types", "route_build")
	}
	counted, _, ok := xpsim("counted run", childEnv, h.args(w, extra...))
	events := 0.0
	if ok {
		if _, err := checkRun(w, counted); err != nil {
			res.fail(h.out, "counted run: %v", err)
		}
		if s, ok := parseTraced(counted.stderr); ok && s.events > 0 {
			events = float64(s.events)
			val["sim.events"] = events
			val["sim.peak_pending"] = float64(s.peakPending)
			val["obs.trace_events"] = float64(s.traced)
		} else {
			res.fail(h.out, "counted run printed no event totals")
		}
		if n, pause, ok := parseGC(counted.stderr); ok {
			val["runtime.gc_count"] = float64(n)
			val["runtime.gc_pause_ms"] = pause
		} else {
			res.fail(h.out, "counted run printed no GC summary")
		}
	}

	// Parallel modes, informational on a 2-core shared host: the same
	// workload on two workers / two shards with the default GOMAXPROCS,
	// result lines compared with the serial run's.
	serial, serialLines, serialOK := xpsim("serial run", childEnv, h.args(w))
	if serialOK && events > 0 {
		val["sim.ns_per_event"] = serial.cpu * 1e9 / events
	}
	for _, mode := range []struct{ metric, flag string }{
		{"runner.procs2_speedup", "-procs"}, {"sim.shards2_speedup", "-shards"},
	} {
		args := h.args(w)
		for i, a := range args {
			if a == mode.flag {
				args[i+1] = "2"
			}
		}
		par, lines, ok := xpsim(mode.flag+" 2 run", nil, args)
		if ok && serialOK {
			if outputSHA(lines) != outputSHA(serialLines) {
				res.fail(h.out, "%s 2 changed the result lines", mode.flag)
			}
			val[mode.metric] = serial.wall / par.wall
		}
	}

	val["host.ref_ms"] = fastest(ref)
	val["host.ref_spread"] = 100 * spread(ref)

	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{val[lm.name], lm.unit}
		fmt.Fprintf(h.out, "  %-30s %14.4f %s\n", lm.name, val[lm.name], lm.unit)
	}
	fmt.Fprintf(h.out, "  runs_attempted %d  runs_failed %d\n", res.Attempted, res.Failed)
	res.finish(h.out)
}

// runProbes builds and runs the bench/layers binary and returns the
// metrics it printed. Its spans go to .bench_build/spans.json.
func (h *harness) runProbes() (map[string]float64, error) {
	bin, err := goBuild(h.root, filepath.Join(h.root, "bench"), "layers", "./layers", "-tags", "benchlayers")
	if err != nil {
		return nil, err
	}
	args := []string{"-seed", strconv.FormatUint(h.opt.seed, 10),
		"-spans", filepath.Join(h.root, buildDir, "spans.json")}
	if h.opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layers binary: %w", err)
	}
	var probes map[string]float64
	if err := json.Unmarshal(out, &probes); err != nil {
		return nil, fmt.Errorf("layers binary output: %w", err)
	}
	return probes, nil
}
