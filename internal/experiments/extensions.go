package experiments

import (
	"fmt"

	"expresspass/internal/core"
	"expresspass/internal/netem"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// The ext-* experiments implement and evaluate the §7 discussion items —
// the paper's proposed extensions that its own evaluation did not cover.

// ---- ext-classes: QoS via credit classes ----

func init() {
	register(Experiment{
		ID:    "ext-classes",
		Title: "§7 extension: traffic classes via credit queues (strict priority, weighted)",
		Paper: "prioritizing flow A's credits over B's yields strict data priority; weights yield weighted shares",
		Run:   runExtClasses,
	})
}

func runExtClasses(p Params) (Result, error) {
	run := func(t *runner.T, classes []netem.CreditClassConfig) (hi, lo float64) {
		eng := t.Engine(p.Seed)
		net := netem.NewNetwork(eng)
		left := net.NewSwitch("L")
		right := net.NewSwitch("R")
		cfg := netem.PortConfig{
			Rate: 10 * unit.Gbps, Delay: 4 * sim.Microsecond,
			DataCapacity: 384500, CreditClasses: classes,
		}
		net.Connect(left, right, cfg)
		var hosts []*netem.Host
		for i := 0; i < 4; i++ {
			h := net.NewHost(fmt.Sprintf("h%d", i), netem.HardwareNICDelay())
			sw := left
			if i >= 2 {
				sw = right
			}
			net.Connect(h, sw, cfg)
			hosts = append(hosts, h)
		}
		net.BuildRoutes()
		fHi := transport.NewFlow(net, hosts[0], hosts[2], 0, 0)
		core.Dial(fHi, core.Config{BaseRTT: 50 * sim.Microsecond, Class: 0})
		fLo := transport.NewFlow(net, hosts[1], hosts[3], 0, 0)
		core.Dial(fLo, core.Config{BaseRTT: 50 * sim.Microsecond, Class: 1})
		warm := p.scaleDur(20*sim.Millisecond, 8*sim.Millisecond)
		eng.RunUntil(warm)
		fHi.TakeDeliveredDelta()
		fLo.TakeDeliveredDelta()
		meas := p.scaleDur(40*sim.Millisecond, 15*sim.Millisecond)
		eng.RunFor(meas)
		return gbps(fHi.TakeDeliveredDelta(), meas), gbps(fLo.TakeDeliveredDelta(), meas)
	}

	type policy struct {
		name    string
		classes []netem.CreditClassConfig
	}
	policies := []policy{
		{"single class (baseline)", nil},
		{"strict priority 0 > 1", []netem.CreditClassConfig{{Priority: 0}, {Priority: 1}}},
		{"weighted 3:1", []netem.CreditClassConfig{{Priority: 0, Weight: 3}, {Priority: 0, Weight: 1}}},
	}
	rows := runner.Map(p.sweep(), policies, func(t *runner.T, c policy) []any {
		hi, lo := run(t, c.classes)
		var ratio any = "-"
		if lo > 0.01 {
			ratio = text("%.2f", hi/lo)
		}
		return []any{c.name, hi, lo, ratio}
	})
	return Result{&Table{Header: []string{"policy", "class-0 Gbps", "class-1 Gbps", "ratio"}, Rows: rows}}, nil
}

// ---- ext-spray: packet spraying instead of symmetric hashing ----

func init() {
	register(Experiment{
		ID:    "ext-spray",
		Title: "§7 extension: per-packet spraying with reorder-tolerant credit accounting",
		Paper: "bounded queuing limits reordering; utilization and zero loss should survive spraying",
		Run:   runExtSpray,
	})
}

func runExtSpray(p Params) (Result, error) {
	arms := []bool{false, true}
	rows := runner.Map(p.sweep(), arms, func(t *runner.T, spray bool) []any {
		eng := t.Engine(p.Seed)
		ft := topology.NewFatTree(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
		if spray {
			for _, sw := range ft.Net.Switches() {
				sw.SetSpraying(true)
			}
		}
		// Cross-pod permutation traffic: every host sends to the host in
		// the opposite pod, exercising the multipath core.
		hosts := ft.Hosts
		var flows []*transport.Flow
		for i := range hosts {
			j := (i + len(hosts)/2) % len(hosts)
			f := transport.NewFlow(ft.Net, hosts[i], hosts[j], 0, 0)
			core.Dial(f, core.Config{BaseRTT: 60 * sim.Microsecond})
			flows = append(flows, f)
		}
		warm := p.scaleDur(20*sim.Millisecond, 10*sim.Millisecond)
		eng.RunUntil(warm)
		for _, f := range flows {
			f.TakeDeliveredDelta()
		}
		ft.Net.ResetStats()
		meas := p.scaleDur(40*sim.Millisecond, 20*sim.Millisecond)
		eng.RunFor(meas)
		var rates []float64
		var total float64
		for _, f := range flows {
			r := gbps(f.TakeDeliveredDelta(), meas)
			rates = append(rates, r)
			total += r
		}
		name := "symmetric ECMP"
		if spray {
			name = "packet spraying"
		}
		st := ft.Net.Stats()
		return []any{name, total, stats.JainIndex(rates),
			float64(st.DataQueueMaxBytes) / 1e3, st.DataDrops}
	})
	return Result{&Table{Header: []string{"routing", "aggregate Gbps", "jain", "maxQ KB", "data drops"}, Rows: rows}}, nil
}

// ---- ext-failover: unidirectional link failure ----

func init() {
	register(Experiment{
		ID:    "ext-failover",
		Title: "§3.1 mechanism: excluding unidirectionally-failed links",
		Paper: "symmetric routing must drop both directions of a half-failed link; traffic survives on remaining paths",
		Run:   runExtFailover,
	})
}

func runExtFailover(p Params) (Result, error) {
	// A run that builds one network is a one-cell sweep like any other.
	res := runner.Map(p.sweep(), []Params{p}, func(t *runner.T, p Params) (lines Result) {
		eng := t.Engine(p.Seed)
		ft := topology.NewFatTree(eng, 4, topology.Config{LinkRate: 10 * unit.Gbps})
		hosts := ft.Hosts
		var flows []*transport.Flow
		for i := range hosts {
			j := (i + len(hosts)/2) % len(hosts)
			f := transport.NewFlow(ft.Net, hosts[i], hosts[j], 0, 0)
			core.Dial(f, core.Config{BaseRTT: 60 * sim.Microsecond})
			flows = append(flows, f)
		}
		phase := p.scaleDur(30*sim.Millisecond, 10*sim.Millisecond)
		measure := func(label string) {
			for _, f := range flows {
				f.TakeDeliveredDelta()
			}
			preDrops := ft.Net.Stats().DataDrops
			eng.RunFor(phase)
			var total float64
			for _, f := range flows {
				total += gbps(f.TakeDeliveredDelta(), phase)
			}
			lines = append(lines, text("%-28s aggregate %.2f Gbps, new data drops %d",
				label, total, ft.Net.Stats().DataDrops-preDrops))
		}
		eng.RunUntil(phase) // warm up
		measure("healthy fabric:")

		// Fail one direction of a ToR uplink; routing excludes both sides.
		failed := ft.ToRUp[0][0]
		failed.Fail()
		ft.Net.BuildRoutes()
		measure("after uplink failure:")

		failed.Restore()
		ft.Net.BuildRoutes()
		measure("after repair:")
		return lines
	})
	return res[0], nil
}

// ---- ext-stopmargin: preemptive CREDIT_STOP ----

func init() {
	register(Experiment{
		ID:    "ext-stopmargin",
		Title: "§7 extension: preemptive CREDIT_STOP to cut credit waste",
		Paper: "announcing flow end ~1 BDP early reduces per-flow credit waste without stalling flows",
		Run:   runExtStopMargin,
	})
}

func runExtStopMargin(p Params) (Result, error) {
	// ~1 BDP of data at 10G / 100 µs RTT ≈ 125 KB ≈ 81 MTUs.
	sizes := []unit.Bytes{64 * unit.KB, 256 * unit.KB, 1 * unit.MB}
	margins := []unit.Bytes{0, 120 * unit.KB}
	type trial struct {
		waste float64
		fct   sim.Duration
		ok    bool
	}
	results := runner.Map(p.sweep(), cross(sizes, margins), func(t *runner.T, c pair[unit.Bytes, unit.Bytes]) trial {
		size, margin := c.a, c.b
		eng := t.Engine(p.Seed)
		d := topology.NewDumbbell(eng, 2, topology.Config{
			LinkRate: 10 * unit.Gbps, LinkDelay: 16 * sim.Microsecond,
		})
		f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], size, 0)
		sess := core.Dial(f, core.Config{
			BaseRTT: 100 * sim.Microsecond, StopMargin: margin,
		})
		eng.RunUntil(200 * sim.Millisecond)
		if !f.Finished {
			return trial{}
		}
		return trial{float64(sess.CreditsWasted()), f.FCT(), true}
	})
	tbl := NewTable("flow size", "waste (no margin)", "waste (margin=BDP)", "FCT delta")
	for i, r := range pivot(sizes, results) {
		size, t0, t1 := sizes[i], r[0], r[1]
		if !t0.ok || !t1.ok {
			tbl.Add(size, "did not finish", "-", "-")
			continue
		}
		tbl.Add(size, t0.waste, t1.waste, t1.fct-t0.fct)
	}
	return Result{tbl}, nil
}
