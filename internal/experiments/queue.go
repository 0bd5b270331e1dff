package experiments

import (
	"expresspass/internal/core"
	"expresspass/internal/lifecycle"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// ---- Fig 1: partition/aggregate queue build-up vs fan-out ----

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Data-queue length under partition/aggregate vs fan-out (ideal rate, DCTCP, credit)",
		Paper: "ideal & DCTCP queues grow ∝ fan-out (DCTCP worse); credit-based stays bounded",
		Run:   runFig1,
	})
}

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
			DataCapacity: 16 * unit.MB,
		}
		proto.Features(&tcfg, rtt)
		ft := topology.NewFatTree(eng, 4, tcfg)
		hosts := ft.Hosts
		master := hosts[0]
		env := &Env{Eng: eng, Net: ft.Net, BaseRTT: rtt,
			XP: core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16}}
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

func init() {
	register(Experiment{
		ID:    "fig17",
		Title: "Shuffle (all-to-all) flow completion times: XP vs DCTCP",
		Paper: "DCTCP median slightly better; XP 1.51× better @99% and 6.65× at max",
		Run:   runFig17,
	})
}

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
			Hosts: hosts, TasksPerHost: tasks, Bytes: bytes,
			StartJitter: 1 * sim.Millisecond,
		})
		env := &Env{Eng: eng, Net: st.Net, BaseRTT: rtt,
			XP: core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16}}
		mgr := lifecycle.NewManager(lifecycle.Config{
			Engine: eng,
			Specs:  specs,
			Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
				f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
				return f, env.Dial(proto, f)
			},
			Grace: 10 * rtt,
		})
		mgr.Start()
		// Run to completion (with a generous cap).
		ideal := float64(bytes) * float64(len(specs)) * 8 /
			(float64(hosts) * 10e9 * 0.9)
		cap := sim.Seconds(ideal*20) + 2*sim.Second
		eng.RunUntil(cap)
		fcts := mgr.FCTs()[""]
		if fcts == nil {
			fcts = stats.NewDist()
		}
		mgr.ForEachLive(func(f *transport.Flow, _ lifecycle.Handle) {
			if f.Finished {
				fcts.Observe(f.FCT().Seconds())
			}
		})
		s := fcts.Summary()
		return []any{string(proto),
			text("%.4gs", s.P50), text("%.4gs", s.P99),
			text("%.4gs", s.Max), st.Net.Stats().DataDrops,
			text("%d/%d", mgr.Finished(), mgr.Total())}
	})
	return Result{
		text("hosts=%d tasksPerHost=%d bytesPerPair=%v flows=%d", hosts, tasks, bytes, hosts*(hosts-1)*tasks*tasks),
		&Table{Header: []string{"proto", "median FCT", "99% FCT", "max FCT", "drops", "finished"}, Rows: rows},
	}, nil
}
