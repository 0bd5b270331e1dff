package sim

import (
	"os/exec"
	"strings"
	"testing"
)

// TestHotPathInlining guards the one property of the scheduler's common
// path that no behavioural test can see: the per-event helpers must
// stay within the compiler's inlining budget. The crowded-bucket branch
// lives in place, crowd and remove precisely so these stay small;
// losing wheelInsert's inlining alone measured 3–5% on every workload
// that never crowds a bucket. Engine.Reached is the test every port kick
// makes where it used to read a flag.
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
	for _, fn := range []string{"less", "(*calQ).advance", "(*calQ).wheelInsert", "(*calQ).bucketMin", "(*calQ).peek", "(*Engine).Reached"} {
		if !strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("%s is no longer inlinable: the un-crowded push/pop path pays a call for it", fn)
		}
	}
}
