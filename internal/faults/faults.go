// Package faults injects deterministic, event-scheduled faults into a
// running simulation: hard link flaps with routing reconvergence, seeded
// per-class stochastic loss windows on individual ports, host-side
// credit-processing stalls, and — the impairment suite — correlated
// loss chains (Gilbert-Elliott, 4-state Markov, correlated Bernoulli),
// packet duplication, in-flight corruption, bounded reordering, and
// delay/rate jitter with pluggable distributions, plus a chaos-schedule
// layer that composes any of them into recurring storms (see spec.go).
// A fault is a Directive; a Plan of them, parsed or built as literals,
// is scheduled by Plan.Apply. Every fault is an ordinary engine event
// driven by forked RNG streams, so fault timelines replay bit-for-bit
// under any seed and survive the serial-vs-parallel byte-compare gate
// unchanged.
//
// The paper's robustness story motivates all three fault kinds: credit
// loss must be self-healing (a destroyed credit merely suppresses one
// data packet, §3.1), data loss must be recovered through the
// credit-request/stop state machine (Fig 7a), and the feedback loop must
// ride out link failures without collapsing utilization. This package
// turns those claims into runnable scenarios (see the ext-faults-*
// experiments).
package faults

import (
	"fmt"

	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
)

// window schedules one fault window on net's engine clock: at `at` it
// emits EvFaultStart and runs open; at at+dur it runs close (when
// non-nil) and emits EvFaultEnd. p is the port the fault is aimed at (a
// stalled host's NIC): its number rides in both events beside the
// "<kind>:<target>" scope, so a consumer finds the port without parsing
// the target back out of the name. val and aux are the kind's two
// headline parameters.
func window(net *netem.Network, p *netem.Port, scope string, val, aux float64,
	at sim.Time, dur sim.Duration, open, close func()) {
	emit := func(ty obs.EventType) {
		if tr := net.Tracer(); tr != nil {
			tr.Emit(obs.Event{T: net.Eng.Now(), Type: ty, Port: p.Number(), Scope: scope, Val: val, Aux: aux})
		}
	}
	net.Eng.At(at, func() {
		emit(obs.EvFaultStart)
		open()
	})
	net.Eng.At(at+dur, func() {
		if close != nil {
			close()
		}
		emit(obs.EvFaultEnd)
	})
}

// millis renders a duration as the float milliseconds a fault event
// carries.
func millis(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }

// applyDirective schedules one directive at an explicit time/duration/
// target (chaos-schedule expansion overrides all three). Every RNG
// stream a window needs is forked from the engine's at the window-open
// event, so the fault's pattern is a pure function of the run seed.
func applyDirective(net *netem.Network, bottleneck *netem.Port,
	d Directive, at sim.Time, dur sim.Duration, target string) error {
	eng := net.Eng
	if d.Kind == "stall" {
		// A GC pause, hypervisor preemption, or interrupt storm on the
		// sender side. Credits arriving during the stall are not lost:
		// the credited data is emitted in a burst once the stall clears
		// (plus the normal per-credit processing delay).
		h := hostByName(net, target)
		if h == nil {
			return fmt.Errorf("faults: no host matches %q", target)
		}
		window(net, h.NIC(), "stall:"+h.Name(), millis(dur), 0, at, dur, func() {
			h.StallCreditsUntil(eng.Now() + dur)
		}, nil)
		return nil
	}
	p := bottleneck
	if target != "" && target != "bottleneck" {
		p = portByName(net, target)
	}
	if p == nil {
		return fmt.Errorf("faults: no port matches %q", target)
	}
	kind := d.Kind
	if kind == "jitter" {
		kind += "-" + d.Axis
	}
	scope := kind + ":" + p.Name()

	// lossWindow installs one chain per class the directive governs,
	// credit first, each on its own stream: a chain shared across classes
	// would couple their drop patterns. Loss only removes packets, so
	// every invariant check stays armed through the window. The last
	// install on a port wins: a loss-family window's close clears every
	// chain on the port, including one an overlapping window installed.
	lossWindow := func(val, aux float64, model func(*sim.Rand) netem.LossModel) {
		window(net, p, scope, val, aux, at, dur, func() {
			var credit, data netem.LossModel
			if d.Class != "data" {
				credit = model(eng.Rand().Fork())
			}
			if d.Class != "credit" {
				data = model(eng.Rand().Fork())
			}
			p.SetLossModel(credit, data)
		}, func() { p.SetLossModel(nil, nil) })
	}
	// cr and dr split a dup/corrupt rate by the governed class.
	var cr, dr float64
	if d.Class != "data" {
		cr = d.Rate
	}
	if d.Class != "credit" {
		dr = d.Rate
	}

	switch kind {
	case "flap":
		// The full-duplex link goes hard-down: both directions' queues
		// flush and in-flight packets are lost into fault-drop
		// accounting. Both transitions rebuild routes, modeling the
		// control-plane reconvergence a fabric performs around a
		// flapping cable. Overlapping flaps of one link are not
		// reference-counted: the earliest up-event restores the link.
		window(net, p, scope, millis(dur), 0, at, dur, func() {
			net.SetLinkDown(p, true)
			net.BuildRoutes()
		}, func() {
			net.SetLinkDown(p, false)
			net.BuildRoutes()
		})
	case "loss":
		// Correlated Bernoulli; at Corr = 0 it is plain Bernoulli(Rate).
		lossWindow(d.Rate, d.Corr, func(r *sim.Rand) netem.LossModel {
			return NewCorrelatedBernoulli(d.Rate, d.Corr, r)
		})
	case "gemodel":
		lossWindow(d.P, d.R, func(r *sim.Rand) netem.LossModel {
			return NewGEModel(d.P, d.R, d.H, d.K, r)
		})
	case "state":
		// tc netem "loss state" semantics and parameter naming.
		lossWindow(d.P13, d.P31, func(r *sim.Rand) netem.LossModel {
			return NewFourState(d.P13, d.P31, d.P23, d.P32, d.P14, r)
		})
	case "dup":
		// Each admitted packet of the class is cloned and the clone
		// queued right behind the original. Endpoint dedup windows must
		// make clones no-ops for credit conservation (the checker's
		// dup-delivery check stays armed to prove it), but duplicated
		// data is extra uncredited load: positional queue/delay findings
		// are voided for the run.
		window(net, p, scope, cr, dr, at, dur, func() {
			p.SetDuplication(cr, dr, eng.Rand().Fork())
		}, func() { p.SetDuplication(0, 0, nil) })
	case "corrupt":
		// A damaged packet is forwarded normally (cut-through switches do
		// not verify CRC) and dropped by the destination NIC's CRC check
		// with an EvCorruptDrop. Corruption only removes packets from the
		// transport's view, so every invariant check stays armed.
		window(net, p, scope, cr, dr, at, dur, func() {
			p.SetCorruption(cr, dr, eng.Rand().Fork())
		}, func() { p.SetCorruption(0, 0, nil) })
	case "reorder":
		// A held-back packet waits an extra uniform delay in [1, MaxExtra]
		// on the wire, strictly additive to the link's propagation delay,
		// so later packets overtake it; held-back packets arrive in
		// clusters, which voids the positional queue/delay findings.
		window(net, p, scope, d.Rate, millis(d.MaxExtra), at, dur, func() {
			p.SetReorder(d.Rate, d.MaxExtra, eng.Rand().Fork())
		}, func() { p.SetReorder(0, 0, nil) })
	case "jitter-delay":
		// Every departing packet suffers extra wire delay drawn from Dist
		// with the given mean.
		mean := sim.Duration(d.Mean)
		window(net, p, scope, millis(mean), 0, at, dur, func() {
			p.SetDelayJitter(DelaySampler(d.Dist, mean, eng.Rand().Fork()))
		}, func() { p.SetDelayJitter(nil) })
	case "jitter-rate":
		// Every transmission is stretched by (1+f), f drawn from Dist
		// with the given mean fraction: duty-cycled line-rate degradation.
		window(net, p, scope, d.Mean, 0, at, dur, func() {
			p.SetRateJitter(RateSampler(d.Dist, d.Mean, eng.Rand().Fork()))
		}, func() { p.SetRateJitter(nil) })
	default:
		return fmt.Errorf("faults: unknown fault kind %q", d.Kind)
	}
	return nil
}
