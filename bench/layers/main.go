//go:build benchlayers

// Command layers measures each simulator layer from outside, by timing
// calls into the exported functions of the packages under internal/, and
// builds one churn cell from those same pieces with a span around each
// layer boundary. It prints one JSON object, metric name → value; the
// spans are kept in memory and written to -spans at exit.
//
// The build tag keeps it out of `go build ./...`: when a later change
// alters one of the signatures used here, only this binary stops
// compiling and the end-to-end half of the benchmark still runs.
// README.md lists every symbol the probes call.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// smoke shrinks every probe to a token amount of work.
var smoke bool

// iters returns how many operations a probe times per batch.
func iters(n int) int {
	if smoke {
		n /= 200
	}
	if n < 1 {
		n = 1
	}
	return n
}

// fastestNs runs timed three times and returns the fastest, in
// nanoseconds: the probes are short, so one slow batch is a neighbour on
// the host, not the code. timed does its own set-up before it starts the
// clock it returns.
func fastestNs(timed func() time.Duration) float64 {
	best := math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		if ns := float64(timed().Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}

// perOp is fastestNs for a probe with no set-up: nanoseconds per
// operation of fn(n).
func perOp(n int, fn func(n int)) float64 {
	return fastestNs(func() time.Duration {
		start := time.Now()
		fn(n)
		return time.Since(start)
	}) / float64(n)
}

// mallocs returns how many heap objects fn allocates.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func main() {
	seed := flag.Uint64("seed", 42, "seed for every engine the probes build")
	spansPath := flag.String("spans", "", "write the churn cell's spans to this file as JSON")
	flag.BoolVar(&smoke, "smoke", false, "one token iteration per probe")
	flag.Parse()

	m := map[string]float64{}
	probeSim(m, *seed)
	probeNetem(m, *seed)
	probeBuild(m, *seed)
	probeTransports(m, *seed)
	probeLifecycle(m, *seed)
	probeObs(m, *seed)
	probeStats(m)
	spans := probeCell(m, *seed)

	if *spansPath != "" {
		raw, err := json.MarshalIndent(spans, "", " ")
		if err == nil {
			err = os.WriteFile(*spansPath, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "layers: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(m); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
}
