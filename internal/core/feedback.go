package core

import "expresspass/internal/unit"

// Feedback is the per-flow credit feedback controller of Algorithm 1.
// It is a pure state machine over (credit loss → next credit rate), kept
// separate from the packet plumbing so its convergence and stability
// properties can be tested and analyzed directly (§4).
type Feedback struct {
	MaxRate    unit.Rate
	MinRate    unit.Rate
	TargetLoss float64
	WMin       float64
	WMax       float64

	Rate unit.Rate // current credit sending rate
	W    float64   // aggressiveness factor

	// OnUpdate, when non-nil, observes each Update after it completes
	// (instrumentation hook; the controller itself stays a pure state
	// machine). increased reports which branch of Algorithm 1 ran.
	OnUpdate func(rate unit.Rate, w, loss float64, increased bool)

	prevIncreasing bool
}

// LastDecreased reports whether the most recent Update took the
// decreasing branch (used by the receiver to gate loss accounting to
// post-decrease credits — at most one rate cut per congestion event).
func (f *Feedback) LastDecreased() bool { return !f.prevIncreasing }

// NewFeedback returns a controller initialized per cfg for a receiver
// whose NIC runs at lineRate, with Algorithm 1's constants. The maximum
// credit rate is the line rate's credit share (unit.CreditRatio); the
// floor is 1/256 of it, roughly one credit per few update periods — low
// enough for thousands of flows to share a link, high enough that a flow
// never burrows so deep into the sub-credit-per-RTT regime that it takes
// tens of periods to surface again.
func NewFeedback(cfg Config, lineRate unit.Rate) *Feedback {
	maxRate := lineRate.Scale(unit.CreditRatio)
	f := &Feedback{
		MaxRate:    maxRate,
		MinRate:    max(maxRate/256, 1),
		TargetLoss: targetLoss,
		WMin:       wMin,
		WMax:       wMax,
		W:          cfg.WInit,
		Rate:       unit.Rate(float64(maxRate) * cfg.Alpha),
	}
	f.clamp()
	return f
}

// Update runs one iteration of Algorithm 1 given the measured credit
// loss over the last matured update period. fresh reports whether the
// previous update period also produced a sample: the aggressiveness
// factor w only compounds across *consecutive* increasing periods
// (Algorithm 1 line 7); a flow so slow that periods pass without any
// credit echo must not chain w-doubling across those gaps, or
// sub-credit-per-RTT flows rocket from w_min to w_max on two sparse
// samples and destabilize the whole link.
func (f *Feedback) Update(creditLoss float64, fresh bool) unit.Rate {
	if creditLoss <= f.TargetLoss {
		// Increasing phase.
		if f.prevIncreasing && fresh {
			f.W = (f.W + f.WMax) / 2
		}
		f.Rate = unit.Rate((1-f.W)*float64(f.Rate) +
			f.W*float64(f.MaxRate)*(1+f.TargetLoss))
		f.prevIncreasing = true
	} else {
		// Decreasing phase.
		f.Rate = unit.Rate(float64(f.Rate) * (1 - creditLoss) * (1 + f.TargetLoss))
		f.W = f.W / 2
		if f.W < f.WMin {
			f.W = f.WMin
		}
		f.prevIncreasing = false
	}
	f.clamp()
	if f.OnUpdate != nil {
		f.OnUpdate(f.Rate, f.W, creditLoss, f.prevIncreasing)
	}
	return f.Rate
}

func (f *Feedback) clamp() {
	// The increase phase may overshoot MaxRate by up to TargetLoss —
	// that overshoot is intentional (§3.2): it lets a flow discover
	// freed-up bandwidth instantly at the cost of a small credit loss.
	hi := unit.Rate(float64(f.MaxRate) * (1 + f.TargetLoss))
	if f.Rate > hi {
		f.Rate = hi
	}
	if f.Rate < f.MinRate {
		f.Rate = f.MinRate
	}
}
