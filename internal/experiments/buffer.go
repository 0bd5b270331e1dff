package experiments

import (
	"expresspass/internal/netcalc"
	"expresspass/internal/runner"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// ---- Table 1: required buffer per port for zero data loss ----

func runTable1(p Params) (Result, error) {
	type topo struct {
		name         string
		host, fabric unit.Rate
	}
	topos := []topo{
		{"32-ary fat tree (10/40G)", 10 * unit.Gbps, 40 * unit.Gbps},
		{"32-ary fat tree (40/100G)", 40 * unit.Gbps, 100 * unit.Gbps},
		{"3-tier Clos (10/40G)", 10 * unit.Gbps, 40 * unit.Gbps},
		{"3-tier Clos (40/100G)", 40 * unit.Gbps, 100 * unit.Gbps},
	}
	rows := runner.Map(p.sweep(), topos, func(_ *runner.T, r topo) []any {
		// The bound depends only on rates/delays/queue budgets, so the
		// fat-tree and Clos rows coincide — as in the paper's Table 1.
		b := netcalc.PaperSpec(r.host, r.fabric).Compute()
		return []any{r.name, b.ToRDown, b.ToRUp, b.Core}
	})
	return Result{&Table{Header: []string{"topology", "ToR down", "ToR up", "Core"}, Rows: rows},
		text("(paper: 577.3KB / 19.0KB / 131.1KB at 10/40G; 1.06MB / 37.2KB / 221.8KB at 40/100G)"),
	}, nil
}

// ---- Fig 5: maximum ToR switch buffer breakdown ----

func runFig5(Params) (Result, error) {
	speeds := []struct {
		name         string
		host, fabric unit.Rate
	}{
		{"10/40G", 10 * unit.Gbps, 40 * unit.Gbps},
		{"40/100G", 40 * unit.Gbps, 100 * unit.Gbps},
		{"100/100G", 100 * unit.Gbps, 100 * unit.Gbps},
	}
	type variant struct {
		name   string
		queue  int
		spread sim.Duration
	}
	variants := []variant{
		{"8 credit queue, dHost=5.1us (software)", 8, sim.Micros(5.1)},
		{"4 credit queue, dHost=1us (hardware NIC)", 4, sim.Micros(1.0)},
	}
	// A 32-ary fat tree ToR has 16 host ports and 16 uplink ports.
	const downPorts, upPorts = 16, 16
	var res Result
	for _, v := range variants {
		tbl := NewTable("link/core speed", "data buffer", "static credit buffer", "total")
		for _, s := range speeds {
			spec := netcalc.PaperSpec(s.host, s.fabric)
			spec.CreditQueue = v.queue
			spec.HostDelayMin = sim.Micros(0.2)
			spec.HostDelayMax = sim.Micros(0.2) + v.spread
			data, credit := spec.ToRSwitchTotal(downPorts, upPorts)
			tbl.Add(s.name, data, credit, data+credit)
		}
		res = append(res, text("\n%s:", v.name), tbl)
	}
	return res, nil
}
