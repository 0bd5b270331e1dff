package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapNegativeDoesNotPanic pins the degenerate-input contract: a
// negative trial count is an empty sweep, not a makeslice panic.
func TestMapNegativeDoesNotPanic(t *testing.T) {
	t.Parallel()
	if got := Map(Run{}, -3, func(_ *T, i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map(-3) returned %d results", len(got))
	}
}

// TestSweepZeroTrials checks an empty sweep succeeds and writes nothing.
func TestSweepZeroTrials(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := Sweep(Run{}, 0, &out, func(_ *T, _ int, _ io.Writer) error { return nil })
	if err != nil {
		t.Fatalf("Sweep(0) = %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("Sweep(0) wrote %q", out.String())
	}
}

// TestSweepWorkerPanicPropagates kills one trial mid-sweep at every
// worker count: the panic must surface on the calling goroutine (not a
// worker), lowest index first, at both the serial and parallel paths.
func TestSweepWorkerPanicPropagates(t *testing.T) {
	t.Parallel()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			t.Parallel()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("worker panic did not propagate")
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "trial 2 exploded") {
					t.Fatalf("wrong panic propagated: %v", r)
				}
			}()
			var out bytes.Buffer
			Sweep(Run{Procs: procs}, 5, &out, func(_ *T, i int, w io.Writer) error {
				if i == 2 {
					panic("trial 2 exploded")
				}
				fmt.Fprintf(w, "trial %d ok\n", i)
				return nil
			})
		})
	}
}

// TestSweepErrorStopsOutputAtFailure checks the documented contract:
// buffers preceding and including the failing trial are written, the
// first error in submission order is returned, later buffers are not.
func TestSweepErrorStopsOutputAtFailure(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	var out bytes.Buffer
	err := Sweep(Run{}, 4, &out, func(_ *T, i int, w io.Writer) error {
		fmt.Fprintf(w, "t%d\n", i)
		if i >= 1 {
			return fmt.Errorf("trial %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "trial 1") {
		t.Fatalf("err = %v, want first error (trial 1)", err)
	}
	if got := out.String(); got != "t0\nt1\n" {
		t.Fatalf("output = %q, want buffers through the failing trial only", got)
	}
}

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
		var out bytes.Buffer
		if err := Sweep(run, n, &out, func(_ *T, i int, w io.Writer) error {
			counts[i].Add(1)
			fmt.Fprintf(w, "%d\n", i)
			return nil
		}); err != nil {
			t.Fatalf("Procs %d: sweep failed: %v", cse.set, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("Procs %d: trial %d ran %d times", cse.set, i, c)
			}
		}
	}
}
