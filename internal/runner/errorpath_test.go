package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestProcsBoundaries drives Run.Procs through its edge values and
// proves a sweep still runs every trial exactly once.
func TestProcsBoundaries(t *testing.T) {
	t.Parallel()
	gomax := runtime.GOMAXPROCS(0)
	cases := []struct {
		set  int
		want int
	}{
		{0, gomax},             // 0 = default
		{1, 1},                 // serial path
		{gomax + 7, gomax + 7}, // oversubscription is allowed
		{-5, gomax},            // negative collapses to default
	}
	for _, cse := range cases {
		run := Run{Procs: cse.set}
		if got := run.workers(); got != cse.want {
			t.Fatalf("Procs %d: %d workers, want %d", cse.set, got, cse.want)
		}
		n := 2*gomax + 3 // more trials than any worker count in play
		counts := make([]atomic.Int32, n)
		got := Map(run, seq(n), func(_ *T, i int) int {
			counts[i].Add(1)
			return i
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 || got[i] != i {
				t.Fatalf("Procs %d: trial %d ran %d times, result %d", cse.set, i, c, got[i])
			}
		}
	}
}
