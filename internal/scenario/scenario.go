// Package scenario is the deterministic fuzz harness: from one seed it
// generates a random topology, a random flow mix drawn from the paper's
// workload distributions, and (sometimes) a fault plan, then runs the
// whole thing to drain with every runtime invariant armed. Any failure
// replays exactly from the printed seed — the generator draws from its
// own splitmix-derived stream and the simulation from the engine's, so
// a seed fully determines the run.
package scenario

import (
	"fmt"
	"strings"

	"expresspass/internal/core"
	"expresspass/internal/faults"
	"expresspass/internal/invariant"
	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

// maxFlowSize caps sampled flow sizes so a heavy-tail draw cannot turn
// one seed into a minutes-long run.
const maxFlowSize = 1 * unit.MB

// Report summarizes one generated run.
type Report struct {
	Seed       uint64
	Topology   string
	Hosts      int
	Dist       string // flow-size distribution name
	Load       float64
	Flows      int
	Finished   int
	Faults     []string // human-readable fault plan, empty if none
	EndTime    sim.Time
	Violations []invariant.Violation
}

func (r Report) String() string {
	f := "none"
	if len(r.Faults) > 0 {
		f = strings.Join(r.Faults, ", ")
	}
	return fmt.Sprintf(
		"seed=%d topo=%s hosts=%d dist=%s load=%.2f flows=%d finished=%d faults=[%s] end=%v violations=%d",
		r.Seed, r.Topology, r.Hosts, r.Dist, r.Load, r.Flows, r.Finished,
		f, r.EndTime, len(r.Violations))
}

// Run generates and executes the scenario for seed, returning its
// report. It is fully deterministic in seed, and it checks conservation
// on its own network only, so runs may be concurrent.
func Run(seed uint64) Report {
	eng := sim.New(seed)
	// The generator gets its own stream so scenario shape and simulation
	// randomness never alias: the engine stream stays exactly what any
	// non-fuzz run with this seed would see.
	gen := sim.NewRand(seed ^ 0x5ca1ab1e5eed)

	rep := Report{Seed: seed}
	net := buildTopology(eng, gen, &rep)

	checker := invariant.Attach(net, invariant.Options{OnViolation: func(v invariant.Violation) {
		rep.Violations = append(rep.Violations, v)
	}})

	flows := buildFlows(net, gen, &rep)
	if gen.Intn(2) == 0 {
		buildFaults(net, gen, &rep)
	}

	eng.Run()
	rep.EndTime = eng.Now()
	for _, f := range flows {
		if f.Finished {
			rep.Finished++
		}
	}
	checker.Finish()
	rep.Violations = append(rep.Violations, invariant.CheckDrained(net)...)
	return rep
}

// buildTopology picks one of six shapes and sizes it from the stream.
func buildTopology(eng *sim.Engine, gen *sim.Rand, rep *Report) *netem.Network {
	cfg := topology.Config{}
	var net *netem.Network
	switch gen.Intn(6) {
	case 0:
		n := 4 + gen.Intn(9)
		rep.Topology = fmt.Sprintf("star/%d", n)
		net = topology.NewStar(eng, n, cfg).Net
	case 1:
		n := 2 + gen.Intn(7)
		rep.Topology = fmt.Sprintf("dumbbell/%d", n)
		net = topology.NewDumbbell(eng, n, cfg).Net
	case 2:
		n := 2 + gen.Intn(3)
		rep.Topology = fmt.Sprintf("parkinglot/%d", n)
		net = topology.NewParkingLot(eng, n, cfg).Net
	case 3:
		n := 2 + gen.Intn(5)
		rep.Topology = fmt.Sprintf("multibottleneck/%d", n)
		net = topology.NewMultiBottleneck(eng, n, cfg).Net
	case 4:
		rep.Topology = "fattree/4"
		net = topology.NewFatTree(eng, 4, cfg).Net
	default:
		p := topology.OversubParams{Cores: 1, Aggs: 2, ToRs: 4,
			HostsPerToR: 2, UplinksPerToR: 2}
		rep.Topology = "oversub/8"
		net = topology.NewOversubTree(eng, p, cfg).Net
	}
	rep.Hosts = len(net.Hosts())
	return net
}

// buildFlows draws 10–40 Poisson arrivals from a random Table 2 size
// distribution and dials an ExpressPass session for each.
func buildFlows(net *netem.Network, gen *sim.Rand, rep *Report) []*transport.Flow {
	dists := workload.AllDists()
	dist := dists[gen.Intn(len(dists))]
	rep.Dist = dist.Name
	rep.Load = 0.3 + 0.5*gen.Float64()
	rep.Flows = 10 + gen.Intn(31)
	hosts := net.Hosts()
	specs, err := workload.Poisson(gen, workload.PoissonConfig{
		Hosts:   len(hosts),
		Dist:    dist,
		Load:    rep.Load,
		RefRate: 10 * unit.Gbps,
		Flows:   rep.Flows,
	})
	if err != nil {
		// Every generated config satisfies the validator (>= 2 hosts,
		// Table 2 dists, positive load); an error here is a fuzzer bug.
		panic(err)
	}
	flows := make([]*transport.Flow, 0, len(specs))
	for _, s := range specs {
		f := transport.NewFlow(net, hosts[s.Src], hosts[s.Dst], min(s.Size, maxFlowSize), s.Start)
		core.Dial(f, core.Config{})
		flows = append(flows, f)
	}
	return flows
}

// buildFaults draws one or two impairment clauses — sometimes wrapped
// in a recurring every{} chaos schedule — renders them as a -faults
// spec string, and applies the parsed plan. The spec is recorded in the
// report, so a violating seed prints the exact timeline it ran and the
// generator doubles as end-to-end fuzz coverage of the spec grammar.
func buildFaults(net *netem.Network, gen *sim.Rand, rep *Report) {
	ports := net.AllPorts()
	hosts := net.Hosts()
	usec := func(d sim.Duration) int64 {
		u := int64(d / sim.Microsecond)
		if u < 1 {
			u = 1
		}
		return u
	}
	port := func() string { return ports[gen.Intn(len(ports))].Name() }
	class := func() string { return []string{"credit", "data", "both"}[gen.Intn(3)] }
	dist := func() string { return []string{"uniform", "normal", "pareto"}[gen.Intn(3)] }
	// clause draws one impairment head (no timing). Schedules with roll
	// leave targets empty so the rotation has something to rotate.
	clause := func(targeted bool) string {
		target := ""
		if targeted {
			target = ":" + port()
		}
		switch gen.Intn(9) {
		case 0:
			return "flap" + target
		case 1:
			if !targeted {
				return "stall"
			}
			return "stall:" + hosts[gen.Intn(len(hosts))].Name()
		case 2:
			if gen.Intn(2) == 0 {
				return fmt.Sprintf("loss:%s:%.3f%s", class(), 0.3*gen.Float64(), target)
			}
			return fmt.Sprintf("loss:%s:%.3f:corr=%.2f%s",
				class(), 0.3*gen.Float64(), gen.Float64(), target)
		case 3:
			return fmt.Sprintf("gemodel:%s:%.3f:%.2f%s",
				class(), 0.01+0.2*gen.Float64(), 0.1+0.8*gen.Float64(), target)
		case 4:
			return fmt.Sprintf("state:%s:%.3f%s", class(), 0.01+0.2*gen.Float64(), target)
		case 5:
			return fmt.Sprintf("dup:%s:%.3f%s", class(), 0.1*gen.Float64(), target)
		case 6:
			return fmt.Sprintf("corrupt:%s:%.3f%s", class(), 0.1*gen.Float64(), target)
		case 7:
			return fmt.Sprintf("reorder:%.3f:%dus%s", 0.2*gen.Float64(),
				usec(gen.Range(5*sim.Microsecond, 50*sim.Microsecond)), target)
		default:
			if gen.Intn(2) == 0 {
				return fmt.Sprintf("jitter:delay:%s:%dus%s", dist(),
					usec(gen.Range(sim.Microsecond, 20*sim.Microsecond)), target)
			}
			return fmt.Sprintf("jitter:rate:%s:%.2f%s", dist(), 0.05+0.3*gen.Float64(), target)
		}
	}
	var clauses []string
	n := 1 + gen.Intn(2)
	for i := 0; i < n; i++ {
		if gen.Intn(4) == 0 {
			// Recurring chaos schedule: 2–4 occurrences of 1–2 inner
			// clauses, optionally jittered and rolling across targets.
			period := gen.Range(100*sim.Microsecond, 400*sim.Microsecond)
			count := 2 + gen.Intn(3)
			opts := fmt.Sprintf(":count=%d", count)
			if gen.Intn(2) == 0 {
				opts += fmt.Sprintf(":jitter=%dus", usec(gen.Range(5*sim.Microsecond, period/4)))
			}
			roll := gen.Intn(2) == 0
			if roll {
				opts += ":roll"
			}
			inner := fmt.Sprintf("%s@0us+%dus",
				clause(!roll), usec(gen.Range(20*sim.Microsecond, period/2)))
			if gen.Intn(2) == 0 {
				inner += fmt.Sprintf("; %s@0us+%dus",
					clause(!roll), usec(gen.Range(20*sim.Microsecond, period/2)))
			}
			at := gen.Range(200*sim.Microsecond, sim.Millisecond)
			total := sim.Duration(count) * period
			clauses = append(clauses, fmt.Sprintf("every:%dus%s{ %s }@%dus+%dus",
				usec(period), opts, inner, usec(at), usec(total)))
			continue
		}
		at := gen.Range(200*sim.Microsecond, sim.Millisecond)
		dur := gen.Range(50*sim.Microsecond, 500*sim.Microsecond)
		clauses = append(clauses, fmt.Sprintf("%s@%dus+%dus",
			clause(true), usec(at), usec(dur)))
	}
	spec := strings.Join(clauses, "; ")
	plan, err := faults.ParseSpec(spec)
	if err != nil {
		// The generator only emits grammar-legal clauses; a parse error
		// here is a fuzzer (or parser) bug worth a loud stop.
		panic(fmt.Sprintf("scenario: generated invalid fault spec %q: %v", spec, err))
	}
	if err := plan.Apply(net, ports[0]); err != nil {
		panic(fmt.Sprintf("scenario: fault spec %q failed to apply: %v", spec, err))
	}
	rep.Faults = append(rep.Faults, spec)
}
