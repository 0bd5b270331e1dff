package sim

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(100)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincide %d/1000 times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(2)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("Intn(7) value %d occurred %d/70000 times", v, c)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestExpDurationMean(t *testing.T) {
	r := NewRand(3)
	mean := 100 * Microsecond
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.ExpDuration(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.03 {
		t.Errorf("exp mean %v, want ~%v", Duration(got), mean)
	}
}

func TestJitterBoundsAndMean(t *testing.T) {
	r := NewRand(4)
	d := 10 * Microsecond
	var sum float64
	for i := 0; i < 20000; i++ {
		v := r.Jitter(d, 0.1)
		if v < 9*Microsecond || v > 11*Microsecond {
			t.Fatalf("jitter out of ±10%%: %v", v)
		}
		sum += float64(v)
	}
	if mean := sum / 20000; math.Abs(mean-float64(d))/float64(d) > 0.005 {
		t.Errorf("jitter mean %v, want ~%v (unbiased)", Duration(mean), d)
	}
	if r.Jitter(d, 0) != d {
		t.Error("zero jitter must be identity")
	}
	if r.Jitter(d, -1) != d {
		t.Error("negative jitter must be identity")
	}
}

func TestRangeInclusive(t *testing.T) {
	r := NewRand(5)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.Range(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("Range out of bounds: %v", v)
		}
		seenLo = seenLo || v == 3
		seenHi = seenHi || v == 6
	}
	if !seenLo || !seenHi {
		t.Error("Range endpoints never sampled")
	}
	if r.Range(9, 2) != 9 {
		t.Error("degenerate Range should return lo")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(7)
	a := parent.Fork()
	b := parent.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams coincide %d/1000 times", same)
	}
}
