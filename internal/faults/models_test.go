package faults

import (
	"math"
	"testing"

	"expresspass/internal/sim"
)

// The loss-model property suite checks the chains against their closed
// forms at several fixed seeds, mirroring the scheduler's differential
// suite: every expectation is a published formula (tc netem / Gilbert-
// Elliott literature), so a failure means the implementation drifted,
// not that a tolerance was unlucky — the seeds are pinned and the
// streams deterministic.

var propSeeds = []uint64{1, 7, 42, 31337}

// drops runs the model for n packets and returns the loss sequence.
func drops(m interface{ Drop() bool }, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = m.Drop()
	}
	return out
}

func lossRate(seq []bool) float64 {
	lost := 0
	for _, d := range seq {
		if d {
			lost++
		}
	}
	return float64(lost) / float64(len(seq))
}

// bursts returns the lengths of completed loss bursts (maximal runs of
// consecutive losses, excluding a run still open at the end).
func bursts(seq []bool) []int {
	var out []int
	run := 0
	for _, d := range seq {
		if d {
			run++
		} else if run > 0 {
			out = append(out, run)
			run = 0
		}
	}
	return out
}

func relClose(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: got %g, want 0", what, got)
		}
		return
	}
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s: got %g, want %g (±%.0f%%)", what, got, want, 100*tol)
	}
}

func TestGEModelSteadyLossRate(t *testing.T) {
	const n = 200_000
	cases := []struct{ p, r, h, k float64 }{
		{0.02, 0.30, 0, 1},    // classic Gilbert
		{0.05, 0.20, 0.3, 1},  // lossy Bad, clean Good
		{0.01, 0.50, 0, 0.99}, // rare background loss in Good
	}
	for _, seed := range propSeeds {
		for _, c := range cases {
			m := NewGEModel(c.p, c.r, c.h, c.k, sim.NewRand(seed))
			got := lossRate(drops(m, n))
			relClose(t, "GE steady loss", got, m.SteadyLossRate(), 0.10)
		}
	}
}

// TestGEModelBurstDistribution pins the classic-Gilbert burst-length
// law: with h=0, k=1 a loss burst is the Bad-state sojourn, geometric
// with mean 1/r. A frequency (chi-squared) test compares the observed
// burst-length histogram against P(L=k) = r·(1−r)^(k−1).
func TestGEModelBurstDistribution(t *testing.T) {
	const n = 400_000
	const p, r = 0.02, 0.3
	for _, seed := range propSeeds {
		m := NewGEModel(p, r, 0, 1, sim.NewRand(seed))
		bs := bursts(drops(m, n))
		if len(bs) < 1000 {
			t.Fatalf("seed %d: only %d bursts", seed, len(bs))
		}
		var sum int
		for _, b := range bs {
			sum += b
		}
		relClose(t, "GE burst mean", float64(sum)/float64(len(bs)), 1/r, 0.10)

		// Chi-squared over bins L=1..6 plus a ≥7 tail. df = 6; the
		// 99.9th percentile is 22.5 — 30 leaves slack for the pinned
		// seeds while still catching a wrong distribution outright.
		const bins = 6
		obs := make([]int, bins+1)
		for _, b := range bs {
			if b > bins {
				obs[bins]++
			} else {
				obs[b-1]++
			}
		}
		exp := make([]float64, bins+1)
		for k := 1; k <= bins; k++ {
			exp[k-1] = float64(len(bs)) * r * math.Pow(1-r, float64(k-1))
		}
		exp[bins] = float64(len(bs)) * math.Pow(1-r, bins)
		var chi2 float64
		for i := range obs {
			d := float64(obs[i]) - exp[i]
			chi2 += d * d / exp[i]
		}
		if chi2 > 30 {
			t.Errorf("seed %d: burst-length chi-squared %.1f > 30 (obs %v)", seed, chi2, obs)
		}
	}
}

// stationary power-iterates a transition matrix to its stationary
// distribution.
func stationary(P [4][4]float64) [4]float64 {
	pi := [4]float64{0.25, 0.25, 0.25, 0.25}
	for it := 0; it < 1000; it++ {
		var next [4]float64
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				next[j] += pi[i] * P[i][j]
			}
		}
		pi = next
	}
	return pi
}

func TestFourStateStationaryLossRate(t *testing.T) {
	const n = 300_000
	cases := []struct{ p13, p31, p23, p32, p14 float64 }{
		{0.05, 0.95, 1, 0, 0},       // tc defaults: isolated losses
		{0.03, 0.25, 0.8, 0.2, 0},   // bursty with good sub-periods
		{0.02, 0.40, 1, 0.10, 0.01}, // plus isolated losses in the gap
	}
	for _, seed := range propSeeds {
		for _, c := range cases {
			m := NewFourState(c.p13, c.p31, c.p23, c.p32, c.p14, sim.NewRand(seed))
			pi := stationary(m.TransitionMatrix())
			got := lossRate(drops(m, n))
			relClose(t, "4-state stationary loss", got, pi[2]+pi[3], 0.10)
		}
	}
}

func TestCorrelatedBernoulli(t *testing.T) {
	const n = 300_000
	cases := []struct{ p, c float64 }{
		{0.05, 0}, // degenerates to independent Bernoulli
		{0.05, 0.5},
		{0.10, 0.8},
	}
	for _, seed := range propSeeds {
		for _, cs := range cases {
			m := NewCorrelatedBernoulli(cs.p, cs.c, sim.NewRand(seed))
			seq := drops(m, n)
			// The stationary rate is exactly p for every correlation.
			relClose(t, "correlated loss rate", lossRate(seq), cs.p, 0.10)
			// Mean burst: 1/(1−q) with q = P(loss|prev lost).
			bs := bursts(seq)
			var sum int
			for _, b := range bs {
				sum += b
			}
			q := cs.p + cs.c*(1-cs.p)
			relClose(t, "correlated burst mean",
				float64(sum)/float64(len(bs)), 1/(1-q), 0.10)
			if cs.c != 0 {
				continue
			}
			// At c = 0 the chain is plain Bernoulli draw for draw: one
			// Float64 per packet, compared with p. A loss window without
			// corr= rests on this to drop exactly the packets a bare
			// Bernoulli stream with the same seed would.
			m, twin := NewCorrelatedBernoulli(cs.p, 0, sim.NewRand(seed)), sim.NewRand(seed)
			for i := 0; i < n; i++ {
				if got, want := m.Drop(), twin.Float64() < cs.p; got != want {
					t.Fatalf("seed %d packet %d: Drop() = %v, Bernoulli(%g) draw says %v", seed, i, got, cs.p, want)
				}
			}
		}
	}
}

func TestJitterSamplerMeans(t *testing.T) {
	const n = 200_000
	for _, seed := range propSeeds {
		for _, dist := range []string{DistUniform, DistNormal, DistPareto} {
			d := DelaySampler(dist, 10*sim.Microsecond, sim.NewRand(seed))
			var sum sim.Duration
			for i := 0; i < n; i++ {
				v := d()
				if v < 0 {
					t.Fatalf("%s: negative jitter %v", dist, v)
				}
				sum += v
			}
			relClose(t, dist+" delay mean",
				float64(sum)/float64(n), float64(10*sim.Microsecond), 0.05)

			r := RateSampler(dist, 0.2, sim.NewRand(seed))
			var fsum float64
			for i := 0; i < n; i++ {
				v := r()
				if v < 0 {
					t.Fatalf("%s: negative stretch %v", dist, v)
				}
				fsum += v
			}
			relClose(t, dist+" rate mean", fsum/float64(n), 0.2, 0.05)
		}
	}
}

// TestModelReplayByteIdentical pins the replay guarantee at the model
// layer: the same seed must reproduce the identical drop sequence, and
// an interleaved second model on a forked stream must not perturb it.
func TestModelReplayByteIdentical(t *testing.T) {
	const n = 50_000
	for _, seed := range propSeeds {
		build := func() []interface{ Drop() bool } {
			root := sim.NewRand(seed)
			return []interface{ Drop() bool }{
				NewGEModel(0.02, 0.3, 0, 1, root.Fork()),
				NewFourState(0.05, 0.95, 1, 0, 0, root.Fork()),
				NewCorrelatedBernoulli(0.05, 0.5, root.Fork()),
			}
		}
		a, b := build(), build()
		for i := 0; i < n; i++ {
			for k := range a {
				if a[k].Drop() != b[k].Drop() {
					t.Fatalf("seed %d: model %d diverged at packet %d", seed, k, i)
				}
			}
		}
	}
}
