package experiments

import (
	"slices"

	"expresspass/internal/core"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// ---- Fig 10: parking-lot utilization, naïve vs feedback ----

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Parking-lot utilization with N bottlenecks: feedback vs naïve",
		Paper: "naïve 83.3%→60% as N grows; feedback ≈98% throughout",
		Run:   runFig10,
	})
}

func runFig10(p Params) (Result, error) {
	tbl := NewTable("bottlenecks", "naive util", "feedback util")
	bottlenecks := []int{1, 2, 3, 4, 5, 6}
	schemes := []bool{true, false} // naive, feedback
	utils := runner.Map(p.sweep(), cross(bottlenecks, schemes), func(t *runner.T, c pair[int, bool]) Text {
		n, naive := c.a, c.b
		eng := t.Engine(p.Seed)
		pl := topology.NewParkingLot(eng, n, topology.Config{LinkRate: 10 * unit.Gbps})
		cfg := core.Config{BaseRTT: 100 * sim.Microsecond, Naive: naive}
		f0 := transport.NewFlow(pl.Net, pl.LongSrc, pl.LongDst, 0, 0)
		core.Dial(f0, cfg)
		for i := 0; i < n; i++ {
			f := transport.NewFlow(pl.Net, pl.CrossSrc[i], pl.CrossDst[i], 0, 0)
			core.Dial(f, cfg)
		}
		warm := p.scaleDur(20*sim.Millisecond, 8*sim.Millisecond)
		eng.RunUntil(warm)
		pl.Net.ResetStats()
		meas := p.scaleDur(40*sim.Millisecond, 15*sim.Millisecond)
		eng.RunFor(meas)
		lowest := 1.0
		for _, link := range pl.Links {
			u := dataUtil(link, meas) / dataShare
			if u < lowest {
				lowest = u
			}
		}
		return text("%.1f%%", lowest*100)
	})
	addPivot(tbl, bottlenecks, utils)
	return Result{text("lowest link utilization (normalized by max data rate):"), tbl}, nil
}

// ---- Fig 11: multi-bottleneck fairness ----

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Multi-bottleneck fairness: Flow 0 throughput vs N competing flows",
		Paper: "feedback tracks max-min C/(N+1); naïve gives Flow 0 ≈C/2 regardless",
		Run:   runFig11,
	})
}

func runFig11(p Params) (Result, error) {
	tbl := NewTable("N", "max-min ideal Gbps", "naive Gbps", "feedback Gbps")
	counts := dedupe([]int{1, 4, 16, 64, p.scaleInt(256, 64)})
	schemes := []bool{true, false} // naive, feedback
	rates := runner.Map(p.sweep(), cross(counts, schemes), func(t *runner.T, c pair[int, bool]) float64 {
		n, naive := c.a, c.b
		eng := t.Engine(p.Seed)
		mb := topology.NewMultiBottleneck(eng, n, topology.Config{LinkRate: 10 * unit.Gbps})
		cfg := core.Config{BaseRTT: 100 * sim.Microsecond, Naive: naive}
		f0 := transport.NewFlow(mb.Net, mb.Flow0Src, mb.Flow0Dst, 0, 0)
		core.Dial(f0, cfg)
		for i := 0; i < n; i++ {
			f := transport.NewFlow(mb.Net, mb.Srcs[i], mb.Dsts[i], 0, 0)
			core.Dial(f, cfg)
		}
		warm := p.scaleDur(20*sim.Millisecond, 8*sim.Millisecond)
		eng.RunUntil(warm)
		f0.TakeDeliveredDelta()
		meas := p.scaleDur(40*sim.Millisecond, 15*sim.Millisecond)
		eng.RunFor(meas)
		return gbps(f0.TakeDeliveredDelta(), meas)
	})
	for i, r := range pivot(counts, rates) {
		n := counts[i]
		ideal := maxGoodputGbps(10*unit.Gbps) / float64(n+1)
		tbl.Add(n, ideal, r[0], r[1])
	}
	return Result{tbl}, nil
}

// ---- Fig 13: convergence behaviour with staggered arrivals ----

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Five staggered flows: throughput stability and queue (XP vs DCTCP)",
		Paper: "XP: stable shares, max queue 18 KB; DCTCP: oscillatory, 240.7 KB",
		Run:   runFig13,
	})
}

func runFig13(p Params) (Result, error) {
	rtt := 25 * sim.Microsecond
	phase := p.scaleDur(1*sim.Second, 25*sim.Millisecond)
	protos := []Proto{ProtoExpressPass, ProtoDCTCP}
	// Each protocol is a section of its own: a title, then its table.
	secs := runner.Map(p.sweep(), protos, func(t *runner.T, proto Proto) Result {
		eng := t.Engine(p.Seed)
		tcfg := topology.Config{}
		proto.Features(&tcfg, rtt)
		d := rttDumbbell(eng, 5, 10*unit.Gbps, rtt, tcfg)
		env := &Env{Eng: eng, Net: d.Net, BaseRTT: rtt,
			XP: core.Config{}}

		var flows []*transport.Flow
		var handles []Handle
		for i := 0; i < 5; i++ {
			f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0,
				sim.Duration(i)*phase)
			flows = append(flows, f)
			handles = append(handles, env.Dial(proto, f))
		}
		// Departures mirror arrivals: flow i leaves at (10−i)·phase.
		for i := 0; i < 5; i++ {
			h := handles[i]
			eng.At(sim.Duration(10-i)*phase, h.Stop)
		}

		tbl := NewTable("phase", "active", "per-flow Gbps", "jain", "maxQ KB")
		bn := d.Bottleneck
		for ph := 0; ph < 10; ph++ {
			bn.ResetStats()
			for _, f := range flows {
				f.TakeDeliveredDelta()
			}
			eng.RunFor(phase)
			var rates []float64
			var active int
			lo, hi := ph+1, 10-ph
			if hi > 5 {
				hi = 5
			}
			if lo > hi {
				lo = hi
			}
			desc := text("")
			for i, f := range flows {
				r := gbps(f.TakeDeliveredDelta(), phase)
				if r > 0.01 {
					active++
					rates = append(rates, r)
					desc.Format += "f%d=%.2f "
					desc.V = append(desc.V, i, r)
				}
			}
			tbl.Add(ph, active, desc, stats.JainIndex(rates),
				float64(bn.Stats().DataQueueMaxBytes)/1e3)
		}
		return Result{text("\n%s (phase=%v):", proto, phase), tbl}
	})
	return slices.Concat(secs...), nil
}

// ---- Fig 15: flow scalability ----

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Flow scalability: utilization, fairness, max queue vs concurrent flows",
		Paper: "XP ≈95% util, fair, queue ≤ ~10 KB; DCTCP collapses ≥64 flows; RCP overflows",
		Run:   runFig15,
	})
}

func runFig15(p Params) (Result, error) {
	counts := dedupe([]int{4, 16, 64, 256, p.scaleInt(1024, 256)})
	protos := []Proto{ProtoExpressPass, ProtoDCTCP, ProtoRCP}
	rows := runner.Map(p.sweep(), cross(counts, protos), func(t *runner.T, c pair[int, Proto]) []any {
		return fig15Cell(t.Engine(p.Seed), p, c.a, c.b)
	})
	return Result{&Table{Header: []string{"flows", "proto", "util Gbps", "jain", "maxQ KB", "data drops", "timeouts"}, Rows: rows}}, nil
}

// fig15Cell runs n unsynchronized long flows of proto across the
// dumbbell on eng and returns the cell's table row.
func fig15Cell(eng *sim.Engine, p Params, n int, proto Proto) []any {
	rtt := 100 * sim.Microsecond
	tcfg := topology.Config{}
	proto.Features(&tcfg, rtt)
	d := rttDumbbell(eng, n, 10*unit.Gbps, rtt, tcfg)
	env := &Env{Eng: eng, Net: d.Net, BaseRTT: rtt,
		XP: core.Config{}}
	var flows []*transport.Flow
	var timeouts func() uint64
	var conns []*transport.Conn
	for i := 0; i < n; i++ {
		// Unsynchronized long-running flows.
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0,
			sim.Duration(i)*73*sim.Microsecond)
		flows = append(flows, f)
		h := env.Dial(proto, f)
		if c, ok := h.(*transport.Conn); ok {
			conns = append(conns, c)
		}
	}
	timeouts = func() uint64 {
		var t uint64
		for _, c := range conns {
			t += c.Timeouts
		}
		return t
	}
	warm := p.scaleDur(60*sim.Millisecond, 20*sim.Millisecond)
	eng.RunUntil(warm)
	d.Net.ResetStats()
	for _, f := range flows {
		f.TakeDeliveredDelta()
	}
	meas := p.scaleDur(100*sim.Millisecond, 50*sim.Millisecond)
	eng.RunFor(meas)
	var rates []float64
	for _, f := range flows {
		rates = append(rates, gbps(f.TakeDeliveredDelta(), meas))
	}
	// Utilization measured at the bottleneck egress (wire bytes
	// of data actually transmitted during the window).
	bn := d.Bottleneck.Stats()
	util := float64(bn.TxDataBytes) * 8 / meas.Seconds() / 1e9
	return []any{n, string(proto), util, stats.JainIndex(rates),
		float64(bn.DataQueueMaxBytes) / 1e3,
		d.Net.Stats().DataDrops, timeouts()}
}

// ---- Fig 16: convergence time at 10 and 100 Gbps ----

func init() {
	register(Experiment{
		ID:    "fig16",
		Title: "Convergence time of a joining flow at 10/100 Gbps",
		Paper: "XP 3 RTTs (α=1/2), 6 RTTs (α=1/16) at both speeds; DCTCP 260→2350 RTTs; RCP 3",
		Run:   runFig16,
	})
}

func runFig16(p Params) (Result, error) {
	rtt := 100 * sim.Microsecond
	type arm struct {
		label   string
		proto   Proto
		alpha   float64
		maxRTTs int
		// binRTTs is the averaging window in RTTs; the paper bins
		// DCTCP at 10 RTTs due to its throughput variance.
		binRTTs int
		ratio   float64
	}
	arms := []arm{
		{"expresspass a=1/2", ProtoExpressPass, 0.5, 60, 1, 0.6},
		{"expresspass a=1/16", ProtoExpressPass, 1.0 / 16, 60, 1, 0.6},
		{"rcp", ProtoRCP, 0, 60, 1, 0.6},
		{"dctcp", ProtoDCTCP, 0, p.scaleInt(6000, 1200), 10, 0.8},
	}
	speeds := []unit.Rate{10 * unit.Gbps, 100 * unit.Gbps}
	rows := runner.Map(p.sweep(), cross(speeds, arms), func(t *runner.T, c pair[unit.Rate, arm]) []any {
		rate, a := c.a, c.b
		eng := t.Engine(p.Seed)
		tcfg := topology.Config{}
		a.proto.Features(&tcfg, rtt)
		if rate >= 100*unit.Gbps {
			// Scale switch buffering and marking with BDP.
			tcfg.DataCapacity = 4 * unit.MB
		}
		d := rttDumbbell(eng, 2, rate, rtt, tcfg)
		env := &Env{Eng: eng, Net: d.Net, BaseRTT: rtt,
			XP: core.Config{Alpha: a.alpha, WInit: a.alpha}}
		f0 := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
		env.Dial(a.proto, f0)
		warm := p.scaleDur(100*sim.Millisecond, 30*sim.Millisecond)
		eng.RunUntil(warm)
		f1 := transport.NewFlow(d.Net, d.Senders[1], d.Receivers[1], 0, eng.Now())
		env.Dial(a.proto, f1)
		f0.TakeDeliveredDelta()
		f1.TakeDeliveredDelta()
		bin := sim.Duration(a.binRTTs) * rtt
		series := binRates(eng, []*transport.Flow{f0, f1}, bin, a.maxRTTs/a.binRTTs)
		fair := maxGoodputGbps(rate) / 2
		if a.proto != ProtoExpressPass {
			fair = rate.Gbits() * float64(unit.MTUPayload) / float64(unit.MaxFrame) / 2
		}
		cb := equalized(series, 2*fair, a.ratio, 3)
		var conv any = text(">%d", a.maxRTTs)
		if cb >= 0 {
			conv = (cb + 1) * a.binRTTs
		}
		return []any{a.label, rate, conv, fair}
	})
	return Result{&Table{Header: []string{"scheme", "link", "conv RTTs", "fair Gbps"}, Rows: rows}}, nil
}
