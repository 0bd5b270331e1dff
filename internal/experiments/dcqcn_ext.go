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

// ---- ext-dcqcn: ExpressPass vs DCQCN-over-PFC under incast ----

func runExtDCQCN(p Params) (Result, error) {
	fanouts := dedupe([]int{16, 64, p.scaleInt(256, 64)})
	protos := []Proto{ProtoExpressPass, ProtoDCQCN}
	rows := runner.Map(p.sweep(), cross(fanouts, protos), func(t *runner.T, c pair[int, Proto]) []any {
		fanout, proto := c.a, c.b
		eng := t.Engine(p.Seed)
		tcfg := topology.Config{LinkRate: 10 * unit.Gbps, Port: netem.PortConfig{DataCapacity: 2 * unit.MB}}
		proto.Features(&tcfg, 30*sim.Microsecond)
		st := topology.NewStar(eng, 17, tcfg)
		env := &Env{Eng: eng, Net: st.Net, BaseRTT: 30 * sim.Microsecond, XP: evalXP()}
		specs := make([]workload.FlowSpec, fanout)
		for i := range specs {
			specs[i] = workload.FlowSpec{Src: 1 + i%16, Dst: 0,
				Size: 256 * unit.KB, Start: sim.Time(i) * 200 * sim.Nanosecond}
		}
		fcts := stats.NewDist() // ms
		env.runFlows(proto, st.Hosts, specs, 2*sim.Second, func(f *transport.Flow, _ lifecycle.Handle) {
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
