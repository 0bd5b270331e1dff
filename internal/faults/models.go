package faults

import (
	"expresspass/internal/netem"
	"expresspass/internal/sim"
)

// This file holds the correlated-loss chains and jitter samplers the
// impairment subsystem installs on ports (netem.LossModel and the
// SetDelayJitter/SetRateJitter callbacks). Each instance owns a private
// forked RNG stream and advances exactly once per packet of its class,
// so the loss/jitter pattern is a pure function of the run seed — the
// property the serial-vs-parallel byte-compare gate pins.

// GEModel is the classic two-state Gilbert-Elliott loss chain (tc netem
// loss gemodel): a Good state delivering with probability k and a Bad
// state delivering with probability h, with per-packet transition
// probabilities p (G→B) and r (B→G). Steady state spends π_B = p/(p+r)
// of packets in Bad, for an overall loss rate of
//
//	π_B·(1−h) + (1−π_B)·(1−k)
//
// and, in the pure Gilbert case (h = 0, k = 1), geometric loss bursts
// with mean length 1/r. The property tests check both closed forms.
type GEModel struct {
	p, r, h, k float64
	bad        bool
	rng        *sim.Rand
}

// NewGEModel returns a Gilbert-Elliott chain starting in Good.
// h is the delivery probability in Bad (0 = classic Gilbert loss burst),
// k the delivery probability in Good (1 = lossless Good periods).
func NewGEModel(p, r, h, k float64, rng *sim.Rand) *GEModel {
	return &GEModel{p: p, r: r, h: h, k: k, rng: rng}
}

// Drop implements netem.LossModel: the current state decides this
// packet's fate, then the chain takes one transition step. Two draws per
// packet, always — fixed stream consumption keeps replay positions
// independent of the outcomes.
func (m *GEModel) Drop() bool {
	deliver := m.k
	if m.bad {
		deliver = m.h
	}
	lost := m.rng.Float64() >= deliver
	if m.bad {
		if m.rng.Float64() < m.r {
			m.bad = false
		}
	} else {
		if m.rng.Float64() < m.p {
			m.bad = true
		}
	}
	return lost
}

// SteadyLossRate returns the chain's closed-form stationary loss rate.
func (m *GEModel) SteadyLossRate() float64 {
	piB := m.p / (m.p + m.r)
	return piB*(1-m.h) + (1-piB)*(1-m.k)
}

// FourState is tc netem's 4-state Markov loss chain (loss state): state
// 1 is the gap period (delivered), state 2 a good burst inside a loss
// neighborhood (delivered), state 3 a loss burst (lost), state 4 an
// isolated loss inside the gap period (lost). Transitions per packet:
//
//	1→3 p13   1→4 p14   3→1 p31   3→2 p32   2→3 p23
//
// with 4→1 always (an isolated loss lasts exactly one packet). The
// chain transitions first; the new state decides the packet, matching
// the kernel's implementation order and parameter naming (pXY is the
// X→Y transition probability).
type FourState struct {
	p13, p31, p23, p32, p14 float64
	state                   int
	rng                     *sim.Rand
}

// NewFourState returns a 4-state chain starting in state 1 (gap).
func NewFourState(p13, p31, p23, p32, p14 float64, rng *sim.Rand) *FourState {
	return &FourState{p13: p13, p31: p31, p23: p23, p32: p32, p14: p14, state: 1, rng: rng}
}

// Drop implements netem.LossModel. One uniform draw per packet selects
// the transition out of the current state; the state entered decides
// whether this packet is lost (states 3 and 4).
func (m *FourState) Drop() bool {
	u := m.rng.Float64()
	switch m.state {
	case 1:
		switch {
		case u < m.p13:
			m.state = 3
		case u < m.p13+m.p14:
			m.state = 4
		}
	case 2:
		if u < m.p23 {
			m.state = 3
		}
	case 3:
		switch {
		case u < m.p31:
			m.state = 1
		case u < m.p31+m.p32:
			m.state = 2
		}
	case 4:
		m.state = 1
	}
	return m.state >= 3
}

// TransitionMatrix returns the chain's 4×4 per-packet transition matrix
// P[i][j] = P(next = j+1 | current = i+1). The property tests power-
// iterate it to the stationary distribution and compare π3+π4 against
// the empirical loss rate.
func (m *FourState) TransitionMatrix() [4][4]float64 {
	var P [4][4]float64
	P[0][2], P[0][3] = m.p13, m.p14
	P[0][0] = 1 - m.p13 - m.p14
	P[1][2] = m.p23
	P[1][1] = 1 - m.p23
	P[2][0], P[2][1] = m.p31, m.p32
	P[2][2] = 1 - m.p31 - m.p32
	P[3][0] = 1
	return P
}

// CorrelatedBernoulli is tc netem's correlated random loss: a first-
// order chain where each packet's loss probability leans toward the
// previous outcome by correlation c ∈ [0, 1):
//
//	P(loss | prev lost) = p + c·(1−p)
//	P(loss | prev ok)   = p·(1−c)
//
// The stationary loss rate is exactly p for every c (the pull toward
// repeats and the pull toward runs of delivery cancel), while the mean
// loss-burst length grows as 1/(1 − p − c·(1−p)). c = 0 degenerates to
// independent Bernoulli(p).
type CorrelatedBernoulli struct {
	p, c     float64
	prevLost bool
	rng      *sim.Rand
}

// NewCorrelatedBernoulli returns a correlated loss chain with stationary
// rate p and correlation c, starting from a delivered packet.
func NewCorrelatedBernoulli(p, c float64, rng *sim.Rand) *CorrelatedBernoulli {
	return &CorrelatedBernoulli{p: p, c: c, rng: rng}
}

// Drop implements netem.LossModel.
func (m *CorrelatedBernoulli) Drop() bool {
	pr := m.p * (1 - m.c)
	if m.prevLost {
		pr = m.p + m.c*(1-m.p)
	}
	m.prevLost = m.rng.Float64() < pr
	return m.prevLost
}

// Jitter distributions, by spec-grammar name. Each sampler is built
// around a mean and returns non-negative values only (netem impairment
// delay is additive: never below the link's propagation delay).
const (
	DistUniform = "uniform" // U(0, 2·mean)
	DistNormal  = "normal"  // |N(mean, mean/3)| clamped at 0
	DistPareto  = "pareto"  // Lomax, alpha = 3, the given mean
)

// paretoAlpha is the fixed tail index of the pareto jitter distribution
// (alpha = 3 keeps the variance finite while still producing rare
// multi-mean excursions, like tc netem's pareto table).
const paretoAlpha = 3.0

// sampleMean draws one value with the given distribution and mean.
func sampleMean(dist string, mean float64, rng *sim.Rand) float64 {
	switch dist {
	case DistNormal:
		v := mean + rng.Normal()*mean/3
		if v < 0 {
			v = 0
		}
		return v
	case DistPareto:
		return rng.Pareto(paretoAlpha, mean)
	default: // DistUniform
		return rng.Float64() * 2 * mean
	}
}

// DelaySampler returns a SetDelayJitter callback drawing extra
// per-packet propagation delay from dist with the given mean.
func DelaySampler(dist string, mean sim.Duration, rng *sim.Rand) func() sim.Duration {
	m := float64(mean)
	return func() sim.Duration {
		return sim.Duration(sampleMean(dist, m, rng))
	}
}

// RateSampler returns a SetRateJitter callback drawing a per-packet
// serialization stretch fraction from dist with the given mean.
func RateSampler(dist string, mean float64, rng *sim.Rand) func() float64 {
	return func() float64 {
		return sampleMean(dist, mean, rng)
	}
}

// ValidDist reports whether name is a recognized jitter distribution.
func ValidDist(name string) bool {
	return name == DistUniform || name == DistNormal || name == DistPareto
}

// Compile-time interface checks.
var (
	_ netem.LossModel = (*GEModel)(nil)
	_ netem.LossModel = (*FourState)(nil)
	_ netem.LossModel = (*CorrelatedBernoulli)(nil)
)
