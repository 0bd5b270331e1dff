package netem

// Observability wiring. A Network built on an engine whose Wiring names
// a runtime hands the run's tracer to every port and, when a metrics CSV
// is requested, registers engine and per-port gauges in a private
// registry sampled on the simulation clock; the rows carry a scope label
// naming the trial and the network's place among its metered ones
// ("t3.0", "t3.1", …), so rows of different trials and networks stay
// apart and deterministically named. None of this runs for an engine
// without one: every port carries a nil tracer. Network.SetTracer traces
// a hand-built network without any run around it.

import (
	"strconv"

	"expresspass/internal/obs"
	"expresspass/internal/unit"
)

// flowMetricsCap bounds how many flows per network register per-flow
// gauges (rate, w, delivered bytes, credit waste) at once, keeping the
// metrics CSV volume sane on many-thousand-flow workloads.
const flowMetricsCap = 64

// initObs attaches the network to the run's runtime: tracing if it has
// a tracer, and a metrics registry plus sampler if a metrics CSV was
// requested. The runner counts the engine itself (runner.T.Engine).
func (n *Network) initObs(w *Wiring) {
	rt := w.Obs
	n.rt = rt
	n.tracer = rt.Tracer()
	if rt.MetricsEnabled() {
		n.scope = "t" + strconv.Itoa(w.Trial) + "." + strconv.Itoa(w.scopes)
		w.scopes++
		n.metrics = obs.NewRegistry()
		n.flowMetricsLeft = flowMetricsCap
		n.registerEngineMetrics()
		n.startSampler()
	}
}

// SetTracer installs tr on the network and every existing port (future
// ports pick it up in Connect). Tests and library users trace a
// hand-built topology this way, with no obs.Runtime; pass nil to stop
// tracing.
func (n *Network) SetTracer(tr *obs.Tracer) {
	n.tracer = tr
	for _, p := range n.ports {
		p.trace = tr
	}
}

// Tracer returns the network's tracer, or nil when tracing is off.
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// Metrics returns the network's metrics registry, or nil when no
// metrics CSV was requested.
func (n *Network) Metrics() *obs.Registry { return n.metrics }

// ClaimFlowMetrics returns the registry a flow may register per-flow
// gauges in, or nil when metrics are off or the per-network flow
// budget (flowMetricsCap) is exhausted. The budget keeps CSV
// volume sane on many-thousand-flow workloads; paired with
// ReleaseFlowMetrics on retirement it caps *concurrent* instrumented
// flows, so a lifecycle-managed million-flow run still gets per-flow
// gauges for the first flowMetricsCap flows alive at any instant.
func (n *Network) ClaimFlowMetrics() *obs.Registry {
	if n.metrics == nil || n.flowMetricsLeft <= 0 {
		return nil
	}
	n.flowMetricsLeft--
	return n.metrics
}

// ReleaseFlowMetrics refunds one claim made through ClaimFlowMetrics.
// Callers must first Unregister the gauges they registered.
func (n *Network) ReleaseFlowMetrics() {
	if n.metrics == nil {
		return
	}
	n.flowMetricsLeft++
}

func (n *Network) registerEngineMetrics() {
	r, e := n.metrics, n.Eng
	r.Gauge("engine/events", func() float64 { return float64(e.Executed()) })
	r.Gauge("engine/pending", func() float64 { return float64(e.Pending()) })
	r.Gauge("engine/peak_heap", func() float64 { return float64(e.Stats().PeakLive) })
	r.Gauge("sim/freelist_size", func() float64 { return float64(e.Stats().FreeList) })
	r.Gauge("sim/resched", func() float64 { return float64(e.Stats().Rescheduled) })
	ivalSec := n.rt.Interval().Seconds()
	var last float64
	r.Gauge("engine/events_per_sec", func() float64 {
		cur := float64(e.Executed())
		d := cur - last
		last = cur
		return d / ivalSec
	})
}

// registerPortMetrics adds the per-port gauges: utilization over the
// sampling interval (data-class wire bits as a fraction of line rate),
// instantaneous queue occupancies, and cumulative drop counts.
func (n *Network) registerPortMetrics(p *Port) {
	r := n.metrics
	pre := "port/" + p.name + "/"
	ivalSec := n.rt.Interval().Seconds()
	rateBits := float64(p.cfg.Rate)
	var lastData unit.Bytes
	r.Gauge(pre+"util", func() float64 {
		cur := p.txDataBytes
		d := cur - lastData
		lastData = cur
		if d < 0 {
			d = 0 // ResetStats rewound the counter mid-interval
		}
		return float64(d) * 8 / ivalSec / rateBits
	})
	r.Gauge(pre+"data_qbytes", func() float64 { return float64(p.data.curBytes()) })
	r.Gauge(pre+"credit_qpkts", func() float64 { return float64(p.credits.len()) })
	r.Gauge(pre+"credit_drops", func() float64 { return float64(p.credits.drops()) })
	r.Gauge(pre+"data_drops", func() float64 { return float64(p.data.stats.Drops) })
}

// startSampler schedules the periodic registry snapshot. The tick
// reschedules itself only while other events remain pending, so a
// run-until-empty loop (Engine.Run) still terminates; if an experiment
// lets the heap drain completely and then schedules more work, sampling
// does not resume — acceptable for the batch workloads here, which keep
// events in flight from start to finish.
func (n *Network) startSampler() {
	ival := n.rt.Interval()
	var tick func()
	tick = func() {
		t := n.Eng.Now()
		for _, s := range n.metrics.Snapshot() {
			n.rt.WriteRow(t, n.scope, s.Name, s.Value)
		}
		if n.Eng.Pending() > 0 {
			n.Eng.After(ival, tick)
		}
	}
	n.Eng.After(ival, tick)
}
