package sim

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"
)

// Same-instant bursts: the shape per-port or per-flow timers armed
// together (DCQCN, synchronised RTOs, RCP's rate meters before they
// shared a clock) give the queue, and the one the walk cap in
// calendar.go exists for. The differential suite proves the order is
// right; the benchmark and the guard below are what see its cost.

// syncTimer re-arms itself one period ahead: n of them armed together
// stay on one picosecond forever.
func syncTimer(obj, _ any, period uint64) {
	e := obj.(*Engine)
	e.After2(Duration(period), syncTimer, e, nil, period)
}

// holdEvent is the background stream: each event schedules one
// successor 1–2048 ns ahead, the spacing drawn from a private LCG whose
// state rides in arg so the stream allocates nothing.
func holdEvent(obj, _ any, state uint64) {
	e := obj.(*Engine)
	state = state*6364136223846793005 + 1442695040888963407
	e.After2D(1, Duration(1+state>>53)*Nanosecond, holdEvent, e, nil, state)
}

// BenchmarkSyncTimers measures ns per executed event (one op is one
// Engine.Step) with n periodic timers re-armed at the same instant over
// a light background of 64 hold-model streams. The timers fire and
// re-arm in key order, so their ring takes each at its tail; n=0 is the
// control that prices the path the other workloads take.
func BenchmarkSyncTimers(b *testing.B) {
	for _, n := range []int{0, 16, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := New(1)
			const period = uint64(10 * Microsecond)
			for i := 0; i < n; i++ {
				e.After2(Duration(period), syncTimer, e, nil, period)
			}
			for i := 0; i < 64; i++ {
				holdEvent(e, nil, uint64(i))
			}
			// Warm up past the first bursts so the free list and the
			// wheel geometry have reached steady state.
			for i := 0; i < 8*(n+64); i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// burstDrainNs returns the best-of-3 cost per event, in ns, of
// scheduling k events across 5 domains on one instant — cycling, so
// four in five arrive against key order — and draining them, once on
// each of reps fresh engines inside one timed window.
func burstDrainNs(k, reps int) float64 {
	nop := func(any, any, uint64) {}
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 3; try++ {
		engs := make([]*Engine, reps)
		for r := range engs {
			engs[r] = New(1)
		}
		start := time.Now()
		for _, e := range engs {
			for i := 0; i < k; i++ {
				e.At2D(int32(i%5), Microsecond, nop, nil, nil, 0)
			}
			e.Run()
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / float64(k*reps)
}

// TestBurstDrainScales is the scaling guard: a same-instant burst must
// cost O(log k) per event, not O(k). A 32× larger burst may cost at most
// 4× more per event (cache misses and the deeper heap account for ~2×);
// a sorted insert without the walk cap measures 169×.
// TestWalkCapBoundsBurstCost is the same guard in compares, not time.
// The small burst is timed 32 times over in one window, so both windows
// drain 32768 events and last about as long: on a host whose cores other
// test binaries keep busy, the scheduler preempts the two alike, where a
// lone 1024-event burst fits in one time slice and a 32768-event one
// does not. Each small burst still has a fresh engine, so it stays
// cache-resident, as it was when it was timed alone.
func TestBurstDrainScales(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("timing guard: skipped under -short and -race")
	}
	small, large := burstDrainNs(1<<10, 32), burstDrainNs(1<<15, 1)
	t.Logf("per-event drain cost: %.0f ns at 1024, %.0f ns at 32768 (%.1fx)", small, large, large/small)
	if large > 4*small {
		t.Fatalf("draining a 32768-event same-instant burst costs %.0f ns/event, %.1fx the %.0f ns/event of a 1024-event burst (limit 4x): a burst is no longer O(log k) per event",
			large, large/small, small)
	}
}
