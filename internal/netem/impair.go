package netem

import (
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
)

// LossModel decides, per admitted packet, whether an injected impairment
// destroys it. Implementations (internal/faults: Gilbert-Elliott,
// 4-state Markov, correlated Bernoulli) are stateful chains owning their
// own forked RNG stream; a port advances the model once per packet of
// the class it is installed on, in the port's scheduling domain, so the
// drop pattern is a pure function of the run seed.
type LossModel interface {
	Drop() bool
}

// impairment is the optional per-port impairment block (internal/faults
// installs it). A healthy port holds a nil pointer, so the entire cost
// of the subsystem on the clean path is one nil check in Enqueue and one
// in transmit — the same contract the disabled tracer follows. Class-split fields index by [2]: 0 = data
// class (everything that is not a credit), 1 = credit class.
type impairment struct {
	// loss: stateful per-class drop models, checked at admit time.
	loss [2]LossModel

	// dup: per-class probability of cloning an admitted packet; the
	// clone enters the same egress queue right behind the original.
	dup    [2]float64
	dupRng *sim.Rand

	// corrupt: per-class probability of flipping bits in flight. The
	// frame still occupies queues and wire; the destination host's CRC
	// check drops it at delivery.
	corrupt    [2]float64
	corruptRng *sim.Rand

	// reorder: probability of holding a departing packet back on the
	// wire for a uniform extra delay in [1, reorderMax] picoseconds, so
	// later packets can overtake it — bounded reordering.
	reorder    float64
	reorderMax sim.Duration
	reorderRng *sim.Rand

	// delayJitter returns a non-negative extra propagation delay per
	// departing packet; rateJitter returns a non-negative stretch
	// fraction f applied to serialization time (tx' = tx·(1+f)). Both
	// samplers own their distribution and RNG (internal/faults builds
	// uniform/normal/pareto variants).
	delayJitter func() sim.Duration
	rateJitter  func() float64
}

func classOf(pkt *packet.Packet) int {
	if pkt.IsCredit() {
		return 1
	}
	return 0
}

// active reports whether any impairment remains installed; Port setters
// drop the block entirely when it goes false so the clean path returns
// to a single nil check.
func (im *impairment) active() bool {
	return im.loss[0] != nil || im.loss[1] != nil ||
		im.dupRng != nil || im.corruptRng != nil || im.reorderRng != nil ||
		im.delayJitter != nil || im.rateJitter != nil
}

func (p *Port) ensureImpair() *impairment {
	if p.impair == nil {
		p.impair = &impairment{}
	}
	return p.impair
}

func (p *Port) impairSettle() {
	if p.impair != nil && !p.impair.active() {
		p.impair = nil
	}
}

// SetLossModel installs (or, with nils, clears) stateful loss models on
// this egress: creditModel governs the credit class, dataModel
// everything else. Distinct classes must get distinct model instances —
// a chain shared across classes would couple their drop patterns
// through interleaved advancement.
func (p *Port) SetLossModel(creditModel, dataModel LossModel) {
	if creditModel == nil && dataModel == nil {
		if p.impair != nil {
			p.impair.loss = [2]LossModel{}
			p.impairSettle()
		}
		return
	}
	im := p.ensureImpair()
	im.loss[0], im.loss[1] = dataModel, creditModel
}

// SetDuplication installs seeded packet duplication on this egress:
// each admitted packet of a class is cloned with the class probability.
// rng must be a deterministic stream (fork the engine's); nil rng or
// both rates ≤ 0 clears the hook.
func (p *Port) SetDuplication(creditRate, dataRate float64, rng *sim.Rand) {
	if rng == nil || (creditRate <= 0 && dataRate <= 0) {
		if p.impair != nil {
			p.impair.dup, p.impair.dupRng = [2]float64{}, nil
			p.impairSettle()
		}
		return
	}
	im := p.ensureImpair()
	im.dup[0], im.dup[1], im.dupRng = dataRate, creditRate, rng
}

// SetCorruption installs seeded corruption on this egress: each admitted
// packet of a class is marked Corrupt with the class probability and
// dropped by the destination host's CRC check. nil rng or both rates ≤ 0
// clears the hook.
func (p *Port) SetCorruption(creditRate, dataRate float64, rng *sim.Rand) {
	if rng == nil || (creditRate <= 0 && dataRate <= 0) {
		if p.impair != nil {
			p.impair.corrupt, p.impair.corruptRng = [2]float64{}, nil
			p.impairSettle()
		}
		return
	}
	im := p.ensureImpair()
	im.corrupt[0], im.corrupt[1], im.corruptRng = dataRate, creditRate, rng
}

// SetReorder installs bounded reordering on this egress: each departing
// packet is, with probability rate, held on the wire for an extra
// uniform delay in [1, maxExtra], letting up to maxExtra's worth of
// later traffic overtake it. The extra delay is strictly additive: no
// packet arrives sooner than the configured propagation delay. nil rng,
// rate ≤ 0, or maxExtra ≤ 0 clears the hook.
func (p *Port) SetReorder(rate float64, maxExtra sim.Duration, rng *sim.Rand) {
	if rng == nil || rate <= 0 || maxExtra <= 0 {
		if p.impair != nil {
			p.impair.reorder, p.impair.reorderMax, p.impair.reorderRng = 0, 0, nil
			p.impairSettle()
		}
		return
	}
	im := p.ensureImpair()
	im.reorder, im.reorderMax, im.reorderRng = rate, maxExtra, rng
}

// SetDelayJitter installs a per-packet extra propagation delay sampler
// (nil clears). Negative samples are clamped to zero: impairment delay
// is additive, so a link never delivers faster than its cable.
func (p *Port) SetDelayJitter(sample func() sim.Duration) {
	if sample == nil {
		if p.impair != nil {
			p.impair.delayJitter = nil
			p.impairSettle()
		}
		return
	}
	p.ensureImpair().delayJitter = sample
}

// SetRateJitter installs a per-packet serialization stretch sampler
// (nil clears): each transmission takes tx·(1+f) with f the sampled
// fraction, clamped at zero — the impaired link only slows, modeling
// duty-cycled line-rate degradation.
func (p *Port) SetRateJitter(sample func() float64) {
	if sample == nil {
		if p.impair != nil {
			p.impair.rateJitter = nil
			p.impairSettle()
		}
		return
	}
	p.ensureImpair().rateJitter = sample
}

// impairAdmit runs the admit-time impairments on pkt: model loss,
// duplication, corruption. It returns the clone to enqueue behind the
// original (nil when no duplication fired) and ok=false when the model
// destroyed the packet (already fault-accounted and recycled).
func (p *Port) impairAdmit(im *impairment, pkt *packet.Packet, now sim.Time) (clone *packet.Packet, ok bool) {
	cl := classOf(pkt)
	if m := im.loss[cl]; m != nil && m.Drop() {
		p.faultDrop(pkt, now)
		return nil, false
	}
	if r := im.dup[cl]; r > 0 && im.dupRng.Float64() < r {
		clone = p.net.pool.Get()
		*clone = *pkt
		// The clone is a fresh frame on this link: it carries no PFC
		// ingress attribution (the original keeps its own), so ingress
		// accounting releases exactly once per accounted frame.
		clone.PFCIngress = 0
		p.faultDups++
		if tr := p.trace; tr != nil {
			tr.Emit(obs.Event{T: now, Type: obs.EvFaultDup, Port: p.Number(), Scope: p.name,
				Flow: int64(pkt.Flow), Seq: pkt.Seq, Bytes: pkt.Wire})
		}
	}
	if r := im.corrupt[cl]; r > 0 && im.corruptRng.Float64() < r {
		pkt.Corrupt = true
		p.faultCorrupts++
	}
	return clone, true
}

// impairDepart computes the extra wire delay a departing packet suffers
// from reordering and delay jitter (≥ 0 always).
func (p *Port) impairDepart(im *impairment) sim.Duration {
	var extra sim.Duration
	if f := im.delayJitter; f != nil {
		if d := f(); d > 0 {
			extra += d
		}
	}
	if rng := im.reorderRng; rng != nil && im.reorder > 0 && rng.Float64() < im.reorder {
		extra += 1 + sim.Duration(rng.Uint64()%uint64(im.reorderMax))
		p.faultReorders++
	}
	return extra
}
