package netem

import (
	"os/exec"
	"strings"
	"testing"
)

// TestHotPathInlining is internal/sim's guard of the same name for the
// queue helpers every enqueue, kick and transmit goes through: they
// must stay within the compiler's inlining budget, and pktRing.grow —
// the make and two copies a port runs a handful of times in its life —
// must stay out of push (see the comment on grow for why it is pinned
// with go:noinline rather than left to the budget).
func TestHotPathInlining(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler: skipped under -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	// The compiler's -m diagnostics are replayed from the build cache,
	// so this costs a compile only after the package changed.
	raw, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, raw)
	}
	out := string(raw)
	for _, fn := range []string{"(*pktRing).pop", "(*pktRing).at", "(*fifo).empty", "(*fifo).len",
		"(*creditScheduler).empty", "(*creditScheduler).classIndex", "(*Port).waiting",
		"(*Port).creditEmpty", "(*Port).creditPop"} {
		if !strings.Contains(out, ": can inline "+fn+"\n") {
			t.Errorf("%s is no longer inlinable: every packet pays a call for it", fn)
		}
	}
	if strings.Contains(out, ": can inline (*pktRing).grow\n") || strings.Contains(out, ": inlining call to (*pktRing).grow\n") {
		t.Errorf("(*pktRing).grow is inlined into push: the growth path sits in every enqueue")
	}
}
