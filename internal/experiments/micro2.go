package experiments

import (
	"slices"

	"expresspass/internal/core"
	"expresspass/internal/netem"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// ---- Fig 10: parking-lot utilization, naïve vs feedback ----

func runFig10(p Params) (Result, error) {
	tbl := NewTable("bottlenecks", "naive util", "feedback util")
	bottlenecks := []int{1, 2, 3, 4, 5, 6}
	schemes := []bool{true, false} // naive, feedback
	utils := runner.Map(p.sweep(), cross(bottlenecks, schemes), func(t *runner.T, c pair[int, bool]) Text {
		n, naive := c.a, c.b
		eng := t.Engine(p.Seed)
		pl := topology.NewParkingLot(eng, n, topology.Config{LinkRate: 10 * unit.Gbps})
		env := &Env{Eng: eng, Net: pl.Net, BaseRTT: 100 * sim.Microsecond, XP: core.Config{Naive: naive}}
		env.dialPairs(ProtoExpressPass, append([]*netem.Host{pl.LongSrc}, pl.CrossSrc...),
			append([]*netem.Host{pl.LongDst}, pl.CrossDst...), 0, 0)
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

func runFig11(p Params) (Result, error) {
	tbl := NewTable("N", "max-min ideal Gbps", "naive Gbps", "feedback Gbps")
	counts := dedupe([]int{1, 4, 16, 64, p.scaleInt(256, 64)})
	schemes := []bool{true, false} // naive, feedback
	flow0 := runner.Map(p.sweep(), cross(counts, schemes), func(t *runner.T, c pair[int, bool]) float64 {
		n, naive := c.a, c.b
		eng := t.Engine(p.Seed)
		mb := topology.NewMultiBottleneck(eng, n, topology.Config{LinkRate: 10 * unit.Gbps})
		env := &Env{Eng: eng, Net: mb.Net, BaseRTT: 100 * sim.Microsecond, XP: core.Config{Naive: naive}}
		flows, _ := env.dialPairs(ProtoExpressPass, append([]*netem.Host{mb.Flow0Src}, mb.Srcs...),
			append([]*netem.Host{mb.Flow0Dst}, mb.Dsts...), 0, 0)
		warm := p.scaleDur(20*sim.Millisecond, 8*sim.Millisecond)
		eng.RunUntil(warm)
		meas := p.scaleDur(40*sim.Millisecond, 15*sim.Millisecond)
		return rates(eng, flows[:1], meas)[0]
	})
	for i, r := range pivot(counts, flow0) {
		n := counts[i]
		ideal := maxGoodputGbps(10*unit.Gbps) / float64(n+1)
		tbl.Add(n, ideal, r[0], r[1])
	}
	return Result{tbl}, nil
}

// ---- Fig 13: convergence behaviour with staggered arrivals ----

func runFig13(p Params) (Result, error) {
	rtt := 25 * sim.Microsecond
	phase := p.scaleDur(1*sim.Second, 25*sim.Millisecond)
	protos := []Proto{ProtoExpressPass, ProtoDCTCP}
	// Each protocol is a section of its own: a title, then its table.
	secs := runner.Map(p.sweep(), protos, func(t *runner.T, proto Proto) Result {
		eng := t.Engine(p.Seed)
		d, env := dumbbell(eng, proto, 5, 10*unit.Gbps, rtt, topology.Config{}, core.Config{})
		// Flow i arrives at i·phase and leaves at (10−i)·phase.
		flows, handles := env.dialPairs(proto, d.Senders, d.Receivers, 0, phase)
		for i, h := range handles {
			eng.At(sim.Duration(10-i)*phase, h.Stop)
		}

		tbl := NewTable("phase", "active", "per-flow Gbps", "jain", "maxQ KB")
		bn := d.Bottleneck
		for ph := 0; ph < 10; ph++ {
			bn.ResetStats()
			got := rates(eng, flows, phase)
			var active []float64
			desc := text("")
			for i, r := range got {
				if r > 0.01 {
					active = append(active, r)
					desc.Format += "f%d=%.2f "
					desc.V = append(desc.V, i, r)
				}
			}
			tbl.Add(ph, len(active), desc, stats.JainIndex(active),
				float64(bn.Stats().DataQueueMaxBytes)/1e3)
		}
		return Result{text("\n%s (phase=%v):", proto, phase), tbl}
	})
	return slices.Concat(secs...), nil
}

// ---- Fig 15: flow scalability ----

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
	d, env := dumbbell(eng, proto, n, 10*unit.Gbps, rtt, topology.Config{}, core.Config{})
	// Unsynchronized long-running flows.
	flows, handles := env.dialPairs(proto, d.Senders, d.Receivers, 0, 73*sim.Microsecond)
	warm := p.scaleDur(60*sim.Millisecond, 20*sim.Millisecond)
	eng.RunUntil(warm)
	d.Net.ResetStats()
	meas := p.scaleDur(100*sim.Millisecond, 50*sim.Millisecond)
	got := rates(eng, flows, meas)
	var timeouts uint64
	for _, h := range handles {
		if c, ok := h.(*transport.Conn); ok {
			timeouts += c.Timeouts
		}
	}
	// Utilization measured at the bottleneck egress (wire bytes
	// of data actually transmitted during the window).
	bn := d.Bottleneck.Stats()
	util := float64(bn.TxDataBytes) * 8 / meas.Seconds() / 1e9
	return []any{n, string(proto), util, stats.JainIndex(got),
		float64(bn.DataQueueMaxBytes) / 1e3,
		d.Net.Stats().DataDrops, timeouts}
}

// ---- Fig 16: convergence time at 10 and 100 Gbps ----

// fig16RTT is fig16's base RTT.
const fig16RTT = 100 * sim.Microsecond

// fig16Arm is one scheme of fig16: how long the joining flow is watched
// and the goodput bin, both in RTTs.
type fig16Arm struct {
	label   string
	proto   Proto
	alpha   float64
	maxRTTs int
	// binRTTs is the averaging window in RTTs; the paper bins
	// DCTCP at 10 RTTs due to its throughput variance.
	binRTTs int
}

// fig16Arms are fig16's schemes; each runs at 10 and 100 Gbps.
func fig16Arms(p Params) []fig16Arm {
	return []fig16Arm{
		{"expresspass a=1/2", ProtoExpressPass, 0.5, 60, 1},
		{"expresspass a=1/16", ProtoExpressPass, 1.0 / 16, 60, 1},
		{"rcp", ProtoRCP, 0, 60, 1},
		{"dctcp", ProtoDCTCP, 0, p.scaleInt(6000, 1200), 10},
	}
}

// fig16Rates runs arm a on eng: a second flow joins a steady one on a
// dumbbell of rate, and the two flows' per-bin goodputs come back.
func fig16Rates(eng *sim.Engine, p Params, rate unit.Rate, a fig16Arm) [][]float64 {
	tcfg := topology.Config{}
	if rate >= 100*unit.Gbps {
		// Scale switch buffering with BDP; dumbbell scales DCTCP's
		// marking threshold with the rate.
		tcfg.Port.DataCapacity = 4 * unit.MB
	}
	d, env := dumbbell(eng, a.proto, 2, rate, fig16RTT, tcfg, core.Config{Alpha: a.alpha, WInit: a.alpha})
	warm := p.scaleDur(100*sim.Millisecond, 30*sim.Millisecond)
	return env.join(a.proto, d, warm, sim.Duration(a.binRTTs)*fig16RTT, a.maxRTTs/a.binRTTs)
}

func runFig16(p Params) (Result, error) {
	speeds := []unit.Rate{10 * unit.Gbps, 100 * unit.Gbps}
	rows := runner.Map(p.sweep(), cross(speeds, fig16Arms(p)), func(t *runner.T, c pair[unit.Rate, fig16Arm]) []any {
		rate, a := c.a, c.b
		bin := sim.Duration(a.binRTTs) * fig16RTT
		fair := fairShare(a.proto, rate)
		ct, ok := convergence(fig16Rates(t.Engine(p.Seed), p, rate, a), fair, bin)
		var conv any = text(">%d", a.maxRTTs)
		if ok {
			conv = int(ct / fig16RTT)
		}
		return []any{a.label, rate, a.binRTTs, conv, fair}
	})
	return Result{&Table{Header: []string{"scheme", "link", "bin RTTs", "conv RTTs (" + convRule() + ")", "fair Gbps"}, Rows: rows}}, nil
}
