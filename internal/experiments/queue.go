package experiments

import (
	"expresspass/internal/lifecycle"
	"expresspass/internal/netem"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// ---- Fig 1: partition/aggregate queue build-up vs fan-out ----

func runFig1(p Params) (Result, error) {
	rtt := 50 * sim.Microsecond
	fanouts := dedupe([]int{32, 64, 128, p.scaleInt(512, 128), p.scaleInt(2048, 128)})
	protos := []Proto{ProtoIdeal, ProtoDCTCP, ProtoExpressPass}
	rows := runner.Map(p.sweep(), cross(fanouts, protos), func(t *runner.T, c pair[int, Proto]) []any {
		fanout, proto := c.a, c.b
		eng := t.Engine(p.Seed)
		tcfg := topology.Config{
			LinkRate: 10 * unit.Gbps,
			// Deep buffer so the queue growth itself is visible
			// rather than truncated by drops (the paper's red
			// "max bound" line).
			Port: netem.PortConfig{DataCapacity: 16 * unit.MB},
		}
		proto.Features(&tcfg, rtt)
		ft := topology.NewFatTree(eng, 4, tcfg)
		hosts := ft.Hosts
		master := hosts[0]
		env := &Env{Eng: eng, Net: ft.Net, BaseRTT: rtt, XP: evalXP()}
		// The master continuously requests from `fanout` workers
		// over persistent connections (§2); model the responses as
		// backlogged worker→master streams whose starts are
		// staggered by the serialized 200 B request fan-out.
		rng := eng.Rand().Fork()
		for i := 0; i < fanout; i++ {
			worker := hosts[1+i%(len(hosts)-1)]
			start := sim.Duration(i)*190*sim.Nanosecond +
				rng.Range(0, 2*sim.Microsecond)
			f := transport.NewFlow(ft.Net, worker, master, 0, start)
			env.Dial(proto, f)
		}
		// The master's ToR downlink is the incast bottleneck.
		bn := master.NIC().Peer()
		eng.RunUntil(p.scaleDur(60*sim.Millisecond, 20*sim.Millisecond))
		st := bn.Stats()
		return []any{fanout, string(proto),
			float64(st.DataQueueMaxBytes) / float64(unit.MaxFrame),
			st.DataQueueAvgBytes / 1e3,
			st.DataDrops}
	})
	return Result{&Table{Header: []string{"fanout", "proto", "maxQ pkts", "avgQ KB", "drops"}, Rows: rows},
		text("(paper's max-bound line grows with fan-out; credit-based stays flat)"),
	}, nil
}

// ---- Fig 17: MapReduce shuffle FCT distribution ----

func runFig17(p Params) (Result, error) {
	rtt := 50 * sim.Microsecond
	hosts := p.scaleInt(40, 10)
	tasks := p.scaleInt(8, 2)
	bytes := unit.Bytes(float64(1*unit.MB) * p.Scale * 4)
	if bytes < 100*unit.KB {
		bytes = 100 * unit.KB
	}
	protos := []Proto{ProtoExpressPass, ProtoDCTCP}
	rows := runner.Map(p.sweep(), protos, func(t *runner.T, proto Proto) []any {
		eng := t.Engine(p.Seed)
		tcfg := topology.Config{LinkRate: 10 * unit.Gbps}
		proto.Features(&tcfg, rtt)
		st := topology.NewStar(eng, hosts, tcfg)
		specs := workload.Shuffle(eng.Rand().Fork(), workload.ShuffleConfig{
			Hosts: hosts, TasksPerHost: tasks, Bytes: bytes})
		env := &Env{Eng: eng, Net: st.Net, BaseRTT: rtt, XP: evalXP()}
		fcts := stats.NewDist()
		// Run to completion (with a generous cap).
		ideal := float64(bytes) * float64(len(specs)) * 8 /
			(float64(hosts) * 10e9 * 0.9)
		finished := env.runFlows(proto, st.Hosts, specs, sim.Seconds(ideal*20)+2*sim.Second,
			func(f *transport.Flow, _ lifecycle.Handle) {
				if f.Finished {
					fcts.Observe(f.FCT().Seconds())
				}
			})
		s := fcts.Summary()
		return []any{string(proto),
			text("%.4gs", s.P50), text("%.4gs", s.P99),
			text("%.4gs", s.Max), st.Net.Stats().DataDrops,
			text("%d/%d", finished, len(specs))}
	})
	return Result{
		text("hosts=%d tasksPerHost=%d bytesPerPair=%v flows=%d", hosts, tasks, bytes, hosts*(hosts-1)*tasks*tasks),
		&Table{Header: []string{"proto", "median FCT", "99% FCT", "max FCT", "drops", "finished"}, Rows: rows},
	}, nil
}
