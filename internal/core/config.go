// Package core implements ExpressPass, the paper's contribution: an
// end-to-end credit-scheduled congestion control. Receivers pace
// per-flow credit packets; switches and NICs rate-limit the credit class
// to ≈5% of each link so the returning data never exceeds capacity; and
// a per-flow feedback loop (Algorithm 1) adapts the credit sending rate
// from observed credit loss to recover utilization and fairness in
// multi-bottleneck networks.
package core

import (
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Algorithm 1's constants: the bounds on the aggressiveness factor w
// (§3.2) and the credit loss rate the feedback loop aims for (§3.3).
const (
	wMin       = 0.01
	wMax       = 0.5
	targetLoss = 0.1
)

// maxRequestRetries bounds CREDIT_REQUEST retransmissions (and the
// receiver's NACK retransmissions) on an unresponsive path. Fig 7a
// retries forever, but a simulation needs its event loop to drain when a
// path is truly dead: each retry waits 4·BaseRTT, so 64 retries probe a
// dead path for ~25 ms of simulated time (at 100 µs) before giving up
// and leaving no events pending.
const maxRequestRetries = 64

// Config tunes one ExpressPass flow. Zero values select the paper's
// defaults.
type Config struct {
	// Alpha is the initial credit rate as a fraction of the maximum
	// credit rate (α in §3.3 / Fig 18). Default 0.5.
	Alpha float64

	// WInit is the initial aggressiveness factor w. Default 0.5.
	WInit float64

	// BaseRTT is the network round-trip estimate used to mature credit
	// loss samples; it is also the feedback update period. Default
	// 100 µs.
	BaseRTT sim.Duration

	// JitterFrac is the random jitter applied to inter-credit gaps,
	// relative to the gap (j in Fig 6a). Default 0.02.
	JitterFrac float64

	// RandomizeCreditSize varies credit frames between 84 and 92 B to
	// de-synchronize credit drops across switches (§3.1). Default on;
	// set DisableCreditSizeRandomization to turn it off.
	DisableCreditSizeRandomization bool

	// Naive disables the feedback loop entirely: credits flow at the
	// maximum credit rate, relying on switch rate-limiting alone (§2's
	// naïve scheme, the no-feedback arm of Figs 10/11).
	Naive bool

	// StopMargin enables the §7 preemptive credit stop: the sender
	// emits CREDIT_STOP once the bytes still awaiting credits drop to
	// this margin, trading a risk of under-crediting (recovered by a
	// CREDIT_REQUEST retry one timeout later) for roughly one RTT less
	// credit waste per flow. Zero disables.
	StopMargin unit.Bytes

	// Class tags this flow's credit packets with a switch credit class
	// (§7 "Multiple traffic classes"); meaningful only on ports
	// configured with netem.CreditClassConfig.
	Class uint8
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.5
		if c.Naive {
			// The naïve scheme of §2 sends credits as fast as possible.
			c.Alpha = 1
		}
	}
	if c.WInit == 0 {
		c.WInit = 0.5
	}
	if c.BaseRTT == 0 {
		c.BaseRTT = 100 * sim.Microsecond
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.02
	}
	return c
}
