// Package faults injects deterministic, event-scheduled faults into a
// running simulation: hard link flaps with routing reconvergence, seeded
// per-class stochastic loss windows on individual ports, host-side
// credit-processing stalls, and — the impairment suite — correlated
// loss chains (Gilbert-Elliott, 4-state Markov, correlated Bernoulli),
// packet duplication, in-flight corruption, bounded reordering, and
// delay/rate jitter with pluggable distributions, plus a chaos-schedule
// layer that composes any of them into recurring storms (see spec.go).
// Every fault is an ordinary engine event driven by forked RNG streams,
// so fault timelines replay bit-for-bit under any seed and survive the
// serial-vs-parallel byte-compare gate unchanged.
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
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/sim"
)

// Injector schedules faults onto one network's engine clock. All methods
// may be called before or during a run; the fault fires at its scheduled
// simulated time. An Injector holds no state of its own beyond the
// network binding, so any number may coexist.
type Injector struct {
	net *netem.Network
	eng *sim.Engine
}

// NewInjector returns an injector bound to net.
func NewInjector(net *netem.Network) *Injector {
	return &Injector{net: net, eng: net.Eng}
}

// emit announces a fault transition. p is the port the fault is aimed at
// (a stalled host's NIC): its number rides in the event beside the
// "<kind>:<target>" scope, so a consumer finds the port without parsing
// the target back out of the name.
func (in *Injector) emit(ty obs.EventType, p *netem.Port, scope string, val, aux float64) {
	if tr := in.net.Tracer(); tr != nil {
		tr.Emit(obs.Event{T: in.eng.Now(), Type: ty, Port: p.Number(), Scope: scope, Val: val, Aux: aux})
	}
}

// FlapLink takes the full-duplex link through p hard-down at `at` and
// back up dur later. Going down flushes both directions' queues and
// loses in-flight packets into fault-drop accounting; both transitions
// rebuild routes, modeling the control-plane reconvergence a datacenter
// fabric performs around a flapping cable. Overlapping flaps of the
// same link are not reference-counted: the earliest up-event restores
// the link.
func (in *Injector) FlapLink(p *netem.Port, at sim.Time, dur sim.Duration) {
	scope := "flap:" + p.Name()
	ms := float64(dur) / float64(sim.Millisecond)
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, ms, 0)
		in.net.SetLinkDown(p, true)
		in.net.BuildRoutes()
	})
	in.eng.At(at+dur, func() {
		in.net.SetLinkDown(p, false)
		in.net.BuildRoutes()
		in.emit(obs.EvFaultEnd, p, scope, ms, 0)
	})
}

// Loss opens a seeded stochastic loss window on p's egress from `at`
// for dur: each admitted packet is destroyed with probability
// creditRate (credit class) or dataRate (everything else). The RNG is
// forked from the engine stream at the window-open event, so the loss
// pattern is a pure function of the run seed. Windows on the same port
// must not overlap (the later close clears the earlier window's rates).
func (in *Injector) Loss(p *netem.Port, creditRate, dataRate float64, at sim.Time, dur sim.Duration) {
	scope := "loss:" + p.Name()
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, creditRate, dataRate)
		p.SetFaultLoss(creditRate, dataRate, in.eng.Rand().Fork())
	})
	in.eng.At(at+dur, func() {
		p.SetFaultLoss(0, 0, nil)
		in.emit(obs.EvFaultEnd, p, scope, creditRate, dataRate)
	})
}

// GEModelLoss opens a Gilbert-Elliott correlated-loss window on p's
// egress from `at` for dur (see GEModel for the chain). class selects
// which queue class the chain governs ("credit", "data", or "both" —
// "both" installs two independent chains so the classes' drop patterns
// stay uncoupled). RNG streams are forked from the engine stream at the
// window-open event, so the burst pattern is a pure function of the run
// seed. Correlated loss only removes packets, so every invariant check
// stays armed through the window.
func (in *Injector) GEModelLoss(p *netem.Port, class string, gp, r, h, k float64, at sim.Time, dur sim.Duration) {
	scope := "gemodel:" + p.Name()
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, gp, r)
		var credit, data netem.LossModel
		if class != "data" {
			credit = NewGEModel(gp, r, h, k, in.eng.Rand().Fork())
		}
		if class != "credit" {
			data = NewGEModel(gp, r, h, k, in.eng.Rand().Fork())
		}
		p.SetLossModel(credit, data)
	})
	in.eng.At(at+dur, func() {
		p.SetLossModel(nil, nil)
		in.emit(obs.EvFaultEnd, p, scope, gp, r)
	})
}

// StateLoss opens a 4-state Markov loss window on p's egress (see
// FourState; tc netem "loss state" semantics and parameter naming).
// class selects the governed queue class as in GEModelLoss.
func (in *Injector) StateLoss(p *netem.Port, class string, p13, p31, p23, p32, p14 float64, at sim.Time, dur sim.Duration) {
	scope := "state:" + p.Name()
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, p13, p31)
		var credit, data netem.LossModel
		if class != "data" {
			credit = NewFourState(p13, p31, p23, p32, p14, in.eng.Rand().Fork())
		}
		if class != "credit" {
			data = NewFourState(p13, p31, p23, p32, p14, in.eng.Rand().Fork())
		}
		p.SetLossModel(credit, data)
	})
	in.eng.At(at+dur, func() {
		p.SetLossModel(nil, nil)
		in.emit(obs.EvFaultEnd, p, scope, p13, p31)
	})
}

// CorrelatedLoss opens a correlated-Bernoulli loss window on p's egress:
// stationary rate exactly `rate`, burstiness set by corr ∈ [0, 1) (see
// CorrelatedBernoulli). class selects the governed queue class as in
// GEModelLoss.
func (in *Injector) CorrelatedLoss(p *netem.Port, class string, rate, corr float64, at sim.Time, dur sim.Duration) {
	scope := "corrloss:" + p.Name()
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, rate, corr)
		var credit, data netem.LossModel
		if class != "data" {
			credit = NewCorrelatedBernoulli(rate, corr, in.eng.Rand().Fork())
		}
		if class != "credit" {
			data = NewCorrelatedBernoulli(rate, corr, in.eng.Rand().Fork())
		}
		p.SetLossModel(credit, data)
	})
	in.eng.At(at+dur, func() {
		p.SetLossModel(nil, nil)
		in.emit(obs.EvFaultEnd, p, scope, rate, corr)
	})
}

// Duplicate opens a duplication window on p's egress: each admitted
// packet of the selected class is cloned with the given probability and
// the clone queued right behind the original. Endpoint dedup windows
// must make clones no-ops for credit conservation (the invariant
// checker's dup-delivery check stays armed to prove it), but duplicated
// data is extra uncredited load — the positional queue/delay findings
// are voided for the run.
func (in *Injector) Duplicate(p *netem.Port, class string, rate float64, at sim.Time, dur sim.Duration) {
	scope := "dup:" + p.Name()
	var cr, dr float64
	if class != "data" {
		cr = rate
	}
	if class != "credit" {
		dr = rate
	}
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, cr, dr)
		p.SetDuplication(cr, dr, in.eng.Rand().Fork())
	})
	in.eng.At(at+dur, func() {
		p.SetDuplication(0, 0, nil)
		in.emit(obs.EvFaultEnd, p, scope, cr, dr)
	})
}

// Corrupt opens a corruption window on p's egress: each admitted packet
// of the selected class is damaged with the given probability, forwarded
// normally (cut-through switches do not verify CRC), and dropped by the
// destination host's NIC CRC check with an EvCorruptDrop trace event.
// Corruption only removes packets from the transport's view, so every
// invariant check stays armed.
func (in *Injector) Corrupt(p *netem.Port, class string, rate float64, at sim.Time, dur sim.Duration) {
	scope := "corrupt:" + p.Name()
	var cr, dr float64
	if class != "data" {
		cr = rate
	}
	if class != "credit" {
		dr = rate
	}
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, cr, dr)
		p.SetCorruption(cr, dr, in.eng.Rand().Fork())
	})
	in.eng.At(at+dur, func() {
		p.SetCorruption(0, 0, nil)
		in.emit(obs.EvFaultEnd, p, scope, cr, dr)
	})
}

// Reorder opens a bounded-reordering window on p's egress: each
// departing packet is, with the given probability, held on the wire for
// an extra uniform delay in [1, maxExtra], letting later packets
// overtake it. The extra delay is strictly additive (never below the
// link's propagation delay); positional queue/delay findings are voided
// (held-back packets arrive in clusters).
func (in *Injector) Reorder(p *netem.Port, rate float64, maxExtra sim.Duration, at sim.Time, dur sim.Duration) {
	scope := "reorder:" + p.Name()
	ms := float64(maxExtra) / float64(sim.Millisecond)
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, rate, ms)
		p.SetReorder(rate, maxExtra, in.eng.Rand().Fork())
	})
	in.eng.At(at+dur, func() {
		p.SetReorder(0, 0, nil)
		in.emit(obs.EvFaultEnd, p, scope, rate, ms)
	})
}

// DelayJitter opens a propagation-jitter window on p's egress: every
// departing packet suffers extra wire delay drawn from dist
// (DistUniform/DistNormal/DistPareto) with the given mean.
func (in *Injector) DelayJitter(p *netem.Port, dist string, mean sim.Duration, at sim.Time, dur sim.Duration) {
	scope := "jitter-delay:" + p.Name()
	ms := float64(mean) / float64(sim.Millisecond)
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, ms, 0)
		p.SetDelayJitter(DelaySampler(dist, mean, in.eng.Rand().Fork()))
	})
	in.eng.At(at+dur, func() {
		p.SetDelayJitter(nil)
		in.emit(obs.EvFaultEnd, p, scope, ms, 0)
	})
}

// RateJitter opens a serialization-jitter window on p's egress: every
// transmission is stretched by a factor (1+f) with f drawn from dist
// with the given mean fraction — duty-cycled line-rate degradation.
func (in *Injector) RateJitter(p *netem.Port, dist string, mean float64, at sim.Time, dur sim.Duration) {
	scope := "jitter-rate:" + p.Name()
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, p, scope, mean, 0)
		p.SetRateJitter(RateSampler(dist, mean, in.eng.Rand().Fork()))
	})
	in.eng.At(at+dur, func() {
		p.SetRateJitter(nil)
		in.emit(obs.EvFaultEnd, p, scope, mean, 0)
	})
}

// StallHost freezes h's credit processing from `at` to `at+dur` — a GC
// pause, hypervisor preemption, or interrupt storm on the sender side.
// Credits arriving during the stall are not lost; the credited data is
// emitted in a burst once the stall clears (plus the normal per-credit
// processing delay).
func (in *Injector) StallHost(h *netem.Host, at sim.Time, dur sim.Duration) {
	scope := "stall:" + h.Name()
	ms := float64(dur) / float64(sim.Millisecond)
	in.eng.At(at, func() {
		in.emit(obs.EvFaultStart, h.NIC(), scope, ms, 0)
		h.StallCreditsUntil(in.eng.Now() + dur)
	})
	in.eng.At(at+dur, func() {
		in.emit(obs.EvFaultEnd, h.NIC(), scope, ms, 0)
	})
}
