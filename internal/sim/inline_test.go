package sim

import (
	"os/exec"
	"strings"
	"testing"
	"unsafe"
)

// TestHotPathInlining guards the one property of the scheduler's common
// path that no behavioural test can see: the per-event helpers must
// stay within the compiler's inlining budget (80). unlink (cost 71) is
// the whole of a wheel remove, advance (17) and peek's memo hit (69) run
// on every push and pop; Engine.Reached is the test every port kick
// makes where it used to read a flag. With unlink, advance and peek
// marked go:noinline fabric-ecmp read +4% at the fastest of 15
// alternating runs and +3% at the 10th percentile (medians −1%: a
// difference this host does not resolve, so the guard is the cheap side
// of the bet). The slow halves stay out of line on purpose: findMin
// (143: the bitmap scan, once per distinct minimum) folded into peek
// would take peek past the budget and turn the load and branch at its
// five call sites into a call each, and heapPush (91: far timers and
// walk spills, 0.2–2% of pushes) keeps append's growth path out of
// place, which every push runs.
func TestHotPathInlining(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler: skipped under -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	// The compiler's -m diagnostics are replayed from the build cache,
	// so this costs a compile only after the package changed.
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"less", "(*calQ).unlink", "(*calQ).advance", "(*calQ).peek", "(*Engine).Reached"} {
		if !strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("%s is no longer inlinable: every wheel push/pop pays a call for it", fn)
		}
	}
	for _, fn := range []string{"(*calQ).findMin", "(*calQ).heapPush"} {
		if strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("%s became inlinable: check that peek and place did not grow by it", fn)
		}
	}
}

// TestEventStays112Bytes pins the struct size: 112 bytes is an allocator
// size class of its own, and next/prev took the last two words of it. A
// ninth word (120 bytes) lands in the 128-byte class, 14% more for every
// pending and every free-listed event.
func TestEventStays112Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 112 {
		t.Fatalf("sim.event is %d bytes, want 112", n)
	}
}
