package main

// A workload is one xpsim invocation shape. Every end-to-end run is
// serial (`-procs 1 -shards 0`, GOMAXPROCS=1 in the child) so the second
// core of a small shared host is left to the harness and the host; the
// benchmark's -seed becomes xpsim's -seed.
//
// The set is restricted to experiments whose amount of simulated work
// barely depends on the seed (event counts move by 0.1–2% across seeds),
// so seconds of different seeds are comparable, and whose single run
// takes 0.9–2.5 s, so one invocation holds 9–24 repetitions: what a
// neighbour on a shared host adds to a run is never negative, and the
// fastest of many runs is steadier than any statistic of a few long ones.
// The fig18–21 churn sweeps fail both tests (10–23 s a run at the
// smallest scale; fig18 executes 58–121 M events at 120–167 ns each
// depending on the seed: its heavy-tailed flow sizes are drawn once per
// seed) and xpsim cannot run one cell of a sweep; their layers are
// covered by the probes and the span-traced churn cell in bench/layers
// instead. README.md has the calibration table.
type workload struct {
	name string
	mode []string // xpsim flags that switch tracing or checking on
	args []string // scale and experiment; `-procs 1 -shards 0 -seed N` come first
	// lines is the number of stdout lines a correct run prints once the
	// `(… wall)` line and blank lines are stripped.
	lines int
	// armed and traced select the mode-specific stderr checks.
	armed, traced bool
}

var workloads = []workload{
	{name: "shuffle-traced", mode: []string{"-trace", "/dev/null"}, args: []string{"-scale", "0.06", "fig17"}, lines: 6, traced: true},
	{name: "shuffle-armed", mode: []string{"-invariants"}, args: []string{"-scale", "0.2", "fig17"}, lines: 6, armed: true},
	{name: "longflows", args: []string{"-scale", "0.1", "fig15"}, lines: 15},
	{name: "fabric-ecmp", args: []string{"-scale", "0.1", "ext-failover"}, lines: 4},
	{name: "protos-storm", args: []string{"-scale", "0.5", "ext-chaos-storm"}, lines: 18},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// End-to-end metric names. BENCHMARK.json declares the same names and
// units with their bounds; golden_test.go keeps the two in step.
const (
	mWall  = "wall_norm_s"
	mCPU   = "cpu_norm_s"
	mRSS   = "peak_rss_mb"
	mSetup = "setup_s"
)

// e2eMetrics lists the end-to-end metrics in print order: whether the
// metric is the fastest of its samples or their median, and whether the
// host factor scales it (main.go's summarise says why).
var e2eMetrics = []struct {
	name, unit      string
	fastest, scaled bool
}{
	{mWall, "s", true, true}, {mCPU, "s", true, true}, {mRSS, "MiB", false, false}, {mSetup, "s", true, false},
}
