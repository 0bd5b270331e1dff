package scenario

import (
	"os"
	"strconv"
	"testing"
)

// ScenarioTest runs one seed with all invariants armed and fails the
// test on any violation, printing everything needed to replay.
func ScenarioTest(t *testing.T, seed uint64) Report {
	t.Helper()
	rep := Run(seed)
	t.Logf("%s", rep)
	fail := len(rep.Violations) > 0
	// Without faults every flow must complete; with faults injected a
	// flow may legitimately die (e.g. its only path flapped at the wrong
	// moment), so only the invariants are binding.
	if len(rep.Faults) == 0 && rep.Finished != rep.Flows {
		t.Errorf("seed %d: %d/%d flows finished on a fault-free run",
			seed, rep.Finished, rep.Flows)
		fail = true
	}
	for i, v := range rep.Violations {
		if i == 8 {
			t.Errorf("... %d more violations", len(rep.Violations)-8)
			break
		}
		t.Errorf("seed %d: %s", seed, v)
	}
	if fail {
		t.Logf("replay: xpsim -scenario-seed %d", seed)
	}
	return rep
}

// TestFuzzSmoke runs XPSIM_FUZZ_SEEDS consecutive seeds (default 8,
// the make fuzz-smoke gate) starting at XPSIM_FUZZ_BASE (default 1)
// with every invariant armed, the seeds in parallel.
func TestFuzzSmoke(t *testing.T) {
	n, base := 8, uint64(1)
	if s := os.Getenv("XPSIM_FUZZ_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad XPSIM_FUZZ_SEEDS %q", s)
		}
		n = v
	}
	if s := os.Getenv("XPSIM_FUZZ_BASE"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad XPSIM_FUZZ_BASE %q", s)
		}
		base = v
	}
	for i := 0; i < n; i++ {
		seed := base + uint64(i)
		t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			ScenarioTest(t, seed)
		})
	}
}

// TestScenarioDeterministic pins the replay guarantee: the same seed
// must produce the identical report, including end time and violation
// list, across runs.
func TestScenarioDeterministic(t *testing.T) {
	a := Run(42)
	b := Run(42)
	if a.String() != b.String() {
		t.Fatalf("seed 42 not deterministic:\n  %s\n  %s", a, b)
	}
	if a.Topology == "" || a.Flows == 0 {
		t.Fatalf("degenerate scenario: %s", a)
	}
}
