package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (SplitMix64 core). Every stochastic choice in the simulator — pacing
// jitter, ECMP tie-breaks, workload sampling — draws from one of these so
// runs are reproducible from a single seed.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Warm up so nearby seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Fork returns an independent generator derived from r's stream, useful
// for giving each flow or host its own stream without coupling them.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64() ^ 0x9e3779b97f4a7c15) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform Duration in [lo, hi].
func (r *Rand) Range(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo+1))
}

// Exp returns an exponentially distributed float64 with mean 1.
func (r *Rand) Exp() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Normal returns a standard-normal float64 (mean 0, stddev 1) via
// Box-Muller. Both uniforms are always drawn and one output discarded,
// so the stream position after a call is fixed regardless of the value
// produced — spare-caching would make downstream draws depend on call
// parity, which is hostile to replay debugging.
func (r *Rand) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Pareto returns a Lomax (Pareto type II) variate with the given shape
// alpha (> 1) and mean: scale = mean·(alpha−1), density decaying as
// x^−(alpha+1). Heavy-tailed jitter models draw from this — most samples
// are small, rare ones are many multiples of the mean.
func (r *Rand) Pareto(alpha, mean float64) float64 {
	if alpha <= 1 || mean <= 0 {
		return mean
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	scale := mean * (alpha - 1)
	return scale * (math.Pow(u, -1/alpha) - 1)
}

// ExpDuration returns an exponentially distributed Duration with the given
// mean, used for Poisson flow inter-arrival times.
func (r *Rand) ExpDuration(mean Duration) Duration {
	d := Duration(r.Exp() * float64(mean))
	if d < 0 {
		d = 0
	}
	return d
}

// Jitter returns a Duration uniform in [d*(1-frac), d*(1+frac)].
func (r *Rand) Jitter(d Duration, frac float64) Duration {
	if frac <= 0 {
		return d
	}
	span := float64(d) * frac
	return d + Duration((r.Float64()*2-1)*span)
}
