//go:build benchlayers

package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"expresspass/internal/core"
	"expresspass/internal/experiments"
	"expresspass/internal/invariant"
	"expresspass/internal/lifecycle"
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
	"expresspass/internal/workload"
)

const baseRTT = 50 * sim.Microsecond

// link is the facade's default ExpressPass link: 8-credit queue, 250-MTU
// data buffer.
func link() netem.PortConfig {
	return netem.PortConfig{Rate: 10 * unit.Gbps, Delay: 2 * sim.Microsecond,
		DataCapacity: unit.Bytes(384.5 * 1000), CreditQueueCap: 8}
}

// ---- sim: the scheduler alone ----

// holder is the hold model's only actor: every event it receives
// schedules one successor a random interval ahead, so the pending set
// stays at its initial size while events stream through the queue.
type holder struct {
	eng *sim.Engine
	rng *sim.Rand
}

func (h *holder) next() sim.Time { return h.eng.Now() + h.rng.Range(1, 20*sim.Microsecond) }

func holdFire(obj, _ any, _ uint64) {
	h := obj.(*holder)
	h.eng.At2(h.next(), holdFire, h, nil, 0)
}

func holdModel(seed uint64, pending int) *holder {
	eng := sim.New(seed)
	h := &holder{eng: eng, rng: eng.Rand().Fork()}
	for i := 0; i < pending; i++ {
		eng.At2(h.next(), holdFire, h, nil, 0)
	}
	// Let the queue settle into its steady shape before anything is timed.
	for i := 0; i < 2*pending; i++ {
		eng.Step()
	}
	return h
}

func noop(_, _ any, _ uint64) {}

func probeSim(m map[string]float64, seed uint64) {
	step := func(h *holder) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				h.eng.Step()
			}
		}
	}
	small, large := holdModel(seed, 1<<10), holdModel(seed, 1<<16)
	m["sim.push_pop_ns.1k"] = perOp(iters(1_000_000), step(small))
	m["sim.push_pop_ns.64k"] = perOp(iters(1_000_000), step(large))
	n := iters(200_000)
	m["sim.allocs_per_event"] = float64(mallocs(func() { step(small)(n) })) / float64(n)

	// Re-arming a pending timer in place, among 1k other pending timers.
	eng := sim.New(seed)
	rng := eng.Rand().Fork()
	ids := make([]sim.EventID, 1<<10)
	for i := range ids {
		ids[i] = eng.At2(rng.Range(1, sim.Millisecond), noop, nil, nil, 0)
	}
	m["sim.resched_ns"] = perOp(iters(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			if !ids[i&(len(ids)-1)].Reschedule(rng.Range(1, sim.Millisecond)) {
				panic("layers: a pending timer refused to reschedule")
			}
		}
	})
}

// ---- netem: port selection and the per-hop packet path ----

// ecmpSwitch returns a switch with k equal-cost ports toward dst.
func ecmpSwitch(seed uint64, k int) (sw *netem.Switch, src, dst packet.NodeID) {
	net := netem.NewNetwork(sim.New(seed))
	a := net.NewHost("a", netem.HardwareNICDelay())
	b := net.NewHost("b", netem.HardwareNICDelay())
	near, far := net.NewSwitch("near"), net.NewSwitch("far")
	net.Connect(a, near, link())
	net.Connect(b, far, link())
	for i := 0; i < k; i++ {
		mid := net.NewSwitch(fmt.Sprintf("mid%d", i))
		net.Connect(near, mid, link())
		net.Connect(mid, far, link())
	}
	net.BuildRoutes()
	if got := len(near.Routes(b.ID())); got != k {
		panic(fmt.Sprintf("layers: %d equal-cost routes, want %d", got, k))
	}
	return near, a.ID(), b.ID()
}

var portSink *netem.Port

func probeNetem(m map[string]float64, seed uint64) {
	for _, k := range []int{1, 4, 16} {
		sw, src, dst := ecmpSwitch(seed, k)
		m[fmt.Sprintf("netem.nextport_ns.%d", k)] = perOp(iters(5_000_000), func(n int) {
			for i := 0; i < n; i++ {
				portSink = sw.NextPort(src, dst, packet.FlowID(i))
			}
		})
	}

	// The BenchmarkHotPath shape: one saturated ExpressPass flow over a
	// 5-hop chain, timed in slices of simulated time after warm-up.
	eng := sim.New(seed)
	net := netem.NewNetwork(eng)
	src := net.NewHost("src", netem.HardwareNICDelay())
	dst := net.NewHost("dst", netem.HardwareNICDelay())
	var prev netem.Node = src
	for i := 0; i < 4; i++ {
		sw := net.NewSwitch(fmt.Sprintf("sw%d", i))
		net.Connect(prev, sw, link())
		prev = sw
	}
	net.Connect(prev, dst, link())
	net.BuildRoutes()
	f := transport.NewFlow(net, src, dst, 0, 0)
	core.Dial(f, core.Config{BaseRTT: 40 * sim.Microsecond})
	eng.RunFor(20 * sim.Millisecond)

	slices := iters(400)
	run := func() {
		for i := 0; i < slices; i++ {
			eng.RunFor(100 * sim.Microsecond)
		}
	}
	before := eng.Executed()
	allocs := mallocs(run)
	perSlice := float64(eng.Executed()-before) / float64(slices)
	m["netem.chain_allocs_per_event"] = float64(allocs) / (perSlice * float64(slices))
	m["netem.chain_ns_per_event"] = perOp(slices, func(int) { run() }) / perSlice
	if f.BytesDelivered == 0 {
		panic("layers: the chain flow delivered nothing")
	}
}

// ---- topology, routing, workload generation: per-trial set-up ----

func probeBuild(m map[string]float64, seed uint64) {
	for _, fabric := range []struct {
		name string
		p    topology.OversubParams
	}{{"scaled", topology.ScaledEval()}, {"paper", topology.PaperEval()}} {
		var ot *topology.OversubTree
		m["topology.build_ms."+fabric.name] = perOp(1, func(int) {
			ot = topology.NewOversubTree(sim.New(seed), fabric.p, topology.Config{LinkRate: 10 * unit.Gbps})
		}) / 1e6
		m["netem.build_routes_ms."+fabric.name] = perOp(1, func(int) { ot.Net.BuildRoutes() }) / 1e6
	}

	flows := iters(200_000)
	rng := sim.NewRand(seed)
	m["workload.poisson_ns_per_flow"] = perOp(flows, func(n int) {
		if _, err := workload.Poisson(rng, workload.PoissonConfig{
			Hosts: 48, Dist: workload.WebServer(), Load: 0.6, RefRate: 160 * unit.Gbps, Flows: n,
		}); err != nil {
			panic(err)
		}
	})
}

// ---- core and transport: one saturated flow, host–switch–host ----

// twoHosts builds the rig and dials one unbounded flow of proto.
func twoHosts(seed uint64, proto experiments.Proto) (*sim.Engine, *transport.Flow) {
	eng := sim.New(seed)
	tcfg := topology.Config{LinkRate: 10 * unit.Gbps}
	proto.Features(&tcfg, baseRTT)
	st := topology.NewStar(eng, 2, tcfg)
	env := &experiments.Env{Eng: eng, Net: st.Net, BaseRTT: baseRTT}
	f := transport.NewFlow(st.Net, st.Hosts[0], st.Hosts[1], 0, 0)
	env.Dial(proto, f)
	return eng, f
}

func probeTransports(m map[string]float64, seed uint64) {
	for _, p := range []struct {
		metric string
		proto  experiments.Proto
	}{
		{"core.ns_per_pkt", experiments.ProtoExpressPass},
		{"transport.ns_per_pkt.dctcp", experiments.ProtoDCTCP},
		{"transport.ns_per_pkt.rcp", experiments.ProtoRCP},
	} {
		eng, f := twoHosts(seed, p.proto)
		eng.RunFor(5 * sim.Millisecond)
		slices := iters(200)
		before := f.BytesDelivered
		ns := perOp(slices, func(n int) {
			for i := 0; i < n; i++ {
				eng.RunFor(100 * sim.Microsecond)
			}
		})
		// perOp ran three batches; packets per slice is their average.
		pkts := float64(f.BytesDelivered-before) / float64(unit.MTUPayload) / float64(3*slices)
		if pkts == 0 {
			panic("layers: " + p.metric + ": the flow delivered nothing")
		}
		m[p.metric] = ns / pkts
	}

	// Dialing: attaching ExpressPass endpoints to flows that start later.
	eng := sim.New(seed)
	st := topology.NewStar(eng, 16, topology.Config{LinkRate: 10 * unit.Gbps})
	n := iters(20_000)
	flows := make([]*transport.Flow, 3*n)
	for i := range flows {
		flows[i] = transport.NewFlow(st.Net, st.Hosts[i%16], st.Hosts[(i+1)%16], unit.MTUPayload, sim.Second)
	}
	next := 0
	m["core.dial_ns"] = perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			core.Dial(flows[next], core.Config{BaseRTT: baseRTT})
			next++
		}
	})
}

// ---- lifecycle: dial at arrival, reap after completion ----

func probeLifecycle(m map[string]float64, seed uint64) {
	flows := iters(20_000)
	eng := sim.New(seed)
	st := topology.NewStar(eng, 16, topology.Config{LinkRate: 10 * unit.Gbps})
	env := &experiments.Env{Eng: eng, Net: st.Net, BaseRTT: baseRTT}
	rng := eng.Rand().Fork()
	specs := make([]workload.FlowSpec, flows)
	for i := range specs {
		src := rng.Intn(16)
		specs[i] = workload.FlowSpec{Src: src, Dst: (src + 1 + rng.Intn(15)) % 16,
			Size: unit.MTUPayload, Start: sim.Time(i+1) * 2 * sim.Microsecond}
	}
	var mgr *lifecycle.Manager
	peak := 0
	mgr = lifecycle.NewManager(lifecycle.Config{
		Engine: eng,
		Specs:  specs,
		Dial: func(s workload.FlowSpec, _ int) (*transport.Flow, lifecycle.Handle) {
			if live := mgr.Live() + 1; live > peak {
				peak = live
			}
			f := transport.NewFlow(st.Net, st.Hosts[s.Src], st.Hosts[s.Dst], s.Size, s.Start)
			return f, env.Dial(experiments.ProtoExpressPass, f)
		},
		Grace: 10 * baseRTT,
	})
	mgr.Start()
	start := time.Now()
	eng.RunUntil(specs[flows-1].Start + sim.Second)
	elapsed := time.Since(start)
	if mgr.Finished() != flows {
		panic(fmt.Sprintf("layers: lifecycle finished %d of %d one-packet flows", mgr.Finished(), flows))
	}
	m["lifecycle.dial_reap_ns"] = float64(elapsed.Nanoseconds()) / float64(flows)
	m["lifecycle.live_peak"] = float64(peak)
}

// ---- obs and invariant: the cost of looking ----

// captureRig is a two-host star; capture runs one finite ExpressPass flow
// across it with every event type recorded into memory.
func captureRig(seed uint64) (*sim.Engine, *topology.Star) {
	eng := sim.New(seed)
	return eng, topology.NewStar(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
}

func capture(seed uint64) []obs.Event {
	eng, st := captureRig(seed)
	ring := obs.NewRingSink(1 << 20)
	st.Net.SetTracer(obs.NewTracer(ring))
	size := 8 * unit.MB
	if smoke {
		size = 100 * unit.KB
	}
	f := transport.NewFlow(st.Net, st.Hosts[0], st.Hosts[1], size, 0)
	core.Dial(f, core.Config{BaseRTT: baseRTT})
	eng.Run()
	if !f.Finished || ring.Total() > 1<<20 {
		panic(fmt.Sprintf("layers: capture: finished=%v, %d events", f.Finished, ring.Total()))
	}
	return ring.Events()
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func probeObs(m map[string]float64, seed uint64) {
	events := capture(seed)
	emit := func(tr *obs.Tracer) func(int) {
		return func(int) {
			for _, ev := range events {
				tr.Emit(ev)
			}
		}
	}
	perEvent := func(tr *obs.Tracer) float64 {
		return perOp(1, emit(tr)) / float64(len(events))
	}
	m["obs.emit_ns.ring"] = perEvent(obs.NewTracer(obs.NewRingSink(4096)))

	for _, sink := range []struct {
		name string
		make func(io.Writer) obs.Sink
	}{
		{"jsonl", func(w io.Writer) obs.Sink { return obs.NewJSONLSink(w) }},
		{"csv", func(w io.Writer) obs.Sink { return obs.NewCSVSink(w) }},
	} {
		m["obs.emit_ns."+sink.name] = perEvent(obs.NewTracer(sink.make(io.Discard)))
		var w countingWriter
		tr := obs.NewTracer(sink.make(&w))
		emit(tr)(1)
		if err := tr.Close(); err != nil {
			panic(err)
		}
		m["obs.bytes_per_event."+sink.name] = float64(w.n) / float64(len(events))
	}

	// The invariant checker replays the capture against a fresh copy of
	// the network it came from. One pass per checker: a second pass would
	// send time backwards.
	violations := 0
	m["invariant.record_ns"] = fastestNs(func() time.Duration {
		_, st := captureRig(seed)
		ck := invariant.Attach(st.Net, invariant.Options{
			OnViolation: func(invariant.Violation) { violations++ },
		})
		start := time.Now()
		for _, ev := range events {
			ck.Record(ev)
		}
		return time.Since(start)
	}) / float64(len(events))
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "layers: the replayed capture raised %d invariant violations\n", violations)
		os.Exit(1)
	}
}

// ---- stats: the report phase ----

func probeStats(m map[string]float64) {
	rng := sim.NewRand(1)
	n := iters(1_000_000)
	m["stats.dist_add_ns"] = perOp(n, func(n int) {
		d := stats.NewExactDist()
		for i := 0; i < n; i++ {
			d.Observe(rng.Float64())
		}
	})
	m["stats.p99_ms.100k"] = fastestNs(func() time.Duration {
		d := stats.NewExactDist()
		for i := 0; i < 100_000; i++ {
			d.Observe(rng.Float64())
		}
		start := time.Now()
		if p := d.Percentile(99); p < 0.9 {
			panic("layers: p99 of a uniform sample below 0.9")
		}
		return time.Since(start)
	}) / 1e6
}
