package sim

import (
	"os/exec"
	"strings"
	"testing"
	"unsafe"
)

// TestHotPathInlining guards the one property of the scheduler's common
// path that no behavioural test can see: a push is two calls (At2D or
// Arm, then schedule) and a pop is one loop (dispatch), only because the
// per-event helpers stay within the compiler's inlining budget (80).
// claim (cost 72) takes and stamps the struct, advance (17) moves the
// origin, placeEmpty (78) is the whole of a push into an empty bucket,
// originMin (43) the whole of finding a minimum in the origin's bitmap
// word, unlink (63) the whole of a wheel remove; Engine.Reached is the
// test every port kick makes where it used to read a flag. placeEmpty
// has two points to spare: a field it writes costs about four. Three
// per-event helpers marked go:noinline (unlink, advance and the memo
// check of an earlier shape) read fabric-ecmp +4% at the fastest of 15
// alternating runs. The slow halves stay out of line on purpose:
// place (the ring walk and the heap push, for an occupied bucket or a
// far day), findMin (the bitmap scan past the origin's word) and
// heapPush (far timers and walk spills, 0.2–2% of pushes; it keeps
// append's growth path out of place) would each take its caller past
// the budget.
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
	for _, fn := range []string{"less", "(*calQ).unlink", "(*calQ).advance", "(*calQ).placeEmpty", "(*calQ).originMin", "(*Engine).claim", "(*Engine).Reached"} {
		if !strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("%s is no longer inlinable: every wheel push/pop pays a call for it", fn)
		}
	}
	for _, fn := range []string{"(*calQ).place", "(*calQ).findMin", "(*calQ).heapPush"} {
		if strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("%s became inlinable: check that schedule and dispatch did not grow by it", fn)
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
