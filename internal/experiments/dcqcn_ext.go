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

// ---- ext-dcqcn: ExpressPass vs DCQCN-over-PFC under incast ----

func init() {
	register(Experiment{
		ID:    "ext-dcqcn",
		Title: "RDMA comparison: ExpressPass vs DCQCN+PFC under incast",
		Paper: "§1: ECN-based RDMA CC needs PFC for zero loss and pays in pauses/queueing; credits need neither",
		Run:   runExtDCQCN,
	})
}

func runExtDCQCN(p Params) (Result, error) {
	fanouts := dedupe([]int{16, 64, p.scaleInt(256, 64)})
	protos := []Proto{ProtoExpressPass, ProtoDCQCN}
	rows := runner.Map(p.sweep(), cross(fanouts, protos), func(t *runner.T, c pair[int, Proto]) []any {
		fanout, proto := c.a, c.b
		eng := t.Engine(p.Seed)
		tcfg := topology.Config{LinkRate: 10 * unit.Gbps, DataCapacity: 2 * unit.MB}
		proto.Features(&tcfg, 30*sim.Microsecond)
		st := topology.NewStar(eng, 17, tcfg)
		env := &Env{Eng: eng, Net: st.Net, BaseRTT: 30 * sim.Microsecond,
			XP: core.Config{Alpha: 1.0 / 16, WInit: 1.0 / 16}}
		specs := make([]workload.FlowSpec, fanout)
		for i := range specs {
			specs[i] = workload.FlowSpec{Src: 1 + i%16, Dst: 0,
				Size: 256 * unit.KB, Start: sim.Time(i) * 200 * sim.Nanosecond}
		}
		mgr := lifecycle.NewManager(lifecycle.Config{
			Engine: eng,
			Specs:  specs,
			Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
				f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
				return f, env.Dial(proto, f)
			},
			FCTValue: func(f *transport.Flow) float64 { return f.FCT().Seconds() * 1e3 },
			Grace:    10 * 30 * sim.Microsecond,
		})
		mgr.Start()
		eng.RunUntil(2 * sim.Second)
		fcts := mgr.FCTs()[""]
		if fcts == nil {
			fcts = stats.NewDist()
		}
		mgr.ForEachLive(func(f *transport.Flow, _ lifecycle.Handle) {
			if f.Finished {
				fcts.Observe(f.FCT().Seconds() * 1e3)
			}
		})
		net := st.Net.Stats()
		return []any{fanout, string(proto),
			text("%.3g", fcts.Percentile(99)),
			float64(st.DownPort(0).Stats().DataQueueMaxBytes) / 1e3,
			net.DataDrops, net.PFCPauses}
	})
	return Result{&Table{Header: []string{"fanout", "proto", "p99 FCT ms", "maxQ KB", "drops", "PFC pauses"}, Rows: rows}}, nil
}
