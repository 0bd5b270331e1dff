//go:build benchlayers

package main

import (
	"fmt"
	"time"

	"expresspass/internal/core"
	"expresspass/internal/experiments"
	"expresspass/internal/lifecycle"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// span is one timed call into a layer. Spans of one cell share its run
// id; Parent indexes the span that made the call (-1 for the cell).
type span struct {
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Self is the span's duration minus what its children cover.
	Self float64 `json:"self_s"`
}

// spanLog records spans in memory. A nil *spanLog records nothing, which
// is how the untraced pass of the cell runs the same code.
type spanLog struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // stack of spans not yet ended
}

func (l *spanLog) begin(name string) {
	if l == nil {
		return
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, span{Run: l.run, Name: name, Parent: parent, Start: time.Since(l.t0).Seconds()})
}

func (l *spanLog) end() {
	if l == nil {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	s := &l.spans[i]
	s.End = time.Since(l.t0).Seconds()
	s.Self += s.End - s.Start
	if s.Parent >= 0 {
		l.spans[s.Parent].Self -= s.End - s.Start
	}
}

// churnCell is one cell of the paper's realistic-workload sweeps
// (fig18–21, table3), built here from the same exported pieces
// internal/experiments uses: Poisson arrivals of web-server flows at load
// 0.6 on the 48-host 3:1 oversubscribed tree, ExpressPass only, every
// flow dialed at arrival and reaped after completion. It returns how
// long Engine.RunUntil took.
func churnCell(seed uint64, flows int, log *spanLog) time.Duration {
	log.begin("cell")
	defer log.end()

	eng := sim.New(seed)
	log.begin("topology")
	params := topology.ScaledEval()
	ot := topology.NewOversubTree(eng, params, topology.Config{LinkRate: 10 * unit.Gbps})
	log.end()

	log.begin("workload")
	hosts := len(ot.Hosts)
	crossRack := float64(hosts-params.HostsPerToR) / float64(hosts-1)
	specs, err := workload.Poisson(eng.Rand().Fork(), workload.PoissonConfig{
		Hosts: hosts, Dist: workload.WebServer(), Load: 0.6 / crossRack,
		RefRate: ot.UplinkCapacity(), Flows: flows, Start: 10 * sim.Microsecond,
	})
	if err != nil {
		panic(err)
	}
	log.end()

	log.begin("lifecycle")
	env := &experiments.Env{Eng: eng, Net: ot.Net, BaseRTT: 52 * sim.Microsecond,
		XP: core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16}}
	mgr := lifecycle.NewManager(lifecycle.Config{
		Engine: eng,
		Specs:  specs,
		Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
			f := transport.NewFlow(ot.Net, ot.Hosts[s.Src], ot.Hosts[s.Dst], s.Size, s.Start)
			return f, env.Dial(experiments.ProtoExpressPass, f)
		},
		Class: func(f *transport.Flow) string { return workload.SizeClass(f.Size) },
		Grace: 10 * env.BaseRTT,
	})
	mgr.Start()
	log.end()

	log.begin("sim.run")
	start := time.Now()
	eng.RunUntil(specs[len(specs)-1].Start + 4*sim.Second)
	ran := time.Since(start)
	log.end()

	log.begin("stats")
	seen := 0
	for _, d := range mgr.FCTs() {
		if d.N() > 0 && !(d.Percentile(99) >= d.Percentile(50)) {
			panic("layers: churn cell: p99 FCT below the median")
		}
		seen += d.N()
	}
	log.end()
	if mgr.Finished() != flows || seen == 0 {
		panic(fmt.Sprintf("layers: churn cell finished %d of %d flows, %d FCTs folded", mgr.Finished(), flows, seen))
	}
	return ran
}

// probeCell runs the cell untraced and traced, twice each and
// alternating, and reports the faster traced pass's spans by layer and
// what recording them cost: the faster traced run against the faster
// untraced one.
func probeCell(m map[string]float64, seed uint64) []span {
	flows := iters(2000)
	if flows < 50 {
		flows = 50
	}
	var untraced, traced time.Duration
	var kept *spanLog
	for pass := 0; pass < 2; pass++ {
		if d := churnCell(seed, flows, nil); pass == 0 || d < untraced {
			untraced = d
		}
		log := &spanLog{run: fmt.Sprintf("churn-cell-seed%d-pass%d", seed, pass), t0: time.Now()}
		if d := churnCell(seed, flows, log); pass == 0 || d < traced {
			traced, kept = d, log
		}
	}

	for _, s := range kept.spans {
		switch s.Name {
		case "topology", "workload", "lifecycle", "stats":
			m[s.Name+".span_s"] = s.End - s.Start
		case "sim.run":
			m["sim.run_span_s"] = s.End - s.Start
		}
	}
	m["trace.overhead_pct"] = 100 * (traced - untraced).Seconds() / untraced.Seconds()
	return kept.spans
}
