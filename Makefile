# Developer convenience targets. The repo is pure standard library;
# everything below is plain go tooling.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check test bench-gate bench-test gate fmt vet race fuzz-smoke cover

## check: the pre-commit gate — vet, formatting, and the race-enabled
## tests of the engine, instrumentation, and parallel-runner layers
## (the packages with the subtlest invariants). The experiments package
## runs with -short so the full determinism gate (see `make gate`)
## stays out of the race budget; the gate's obs variant still runs.
## The internal/sim run is not -short, so it includes the inlining
## guard (TestHotPathInlining: `go build -gcflags=-m` must still report
## inlinable the helpers that keep a push at two calls and a pop at one
## loop, and not the slow halves place, findMin and heapPush) — a
## regression no behavioural test can see. The timing guard TestBurstDrainScales
## skips itself under -race; plain `go test ./...` runs it. The race
## build also holds the steady-state packet path to 0 allocs/op
## (TestHotPathBudget): a network's packet pool is a plain free list,
## which drops nothing under the race detector.
## Run `make bench-gate` alongside check before committing hot-path
## changes: it holds the packet path to its packets-per-second floor.
check: vet
	@unformatted=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go test -race ./internal/sim/... ./internal/obs/... ./internal/runner/... ./internal/netem/... ./internal/faults/... ./internal/invariant/... ./internal/scenario/...
	go test -race -short ./internal/experiments/...
	go test -race -run '^TestHotPathBudget$$' .
	@$(MAKE) --no-print-directory fuzz-smoke
	@$(MAKE) --no-print-directory bench-test
	@echo "check: OK"

## bench-test: the tests of the benchmark harness (bench/, a module of
## its own that `go build ./...` and `go test ./...` at the root never
## see). Its per-layer probes compile against internal/obs, netem, core
## and friends, so a signature change there turns the benchmark's
## `layers` block into `layers: unavailable … correct:false`; this makes
## that a local test failure first.
bench-test:
	cd bench && go test -short ./... && go test -short -tags benchlayers ./...
	@echo "bench-test: OK"

## fuzz-smoke: an 8-seed scenario-fuzz sweep (~30s) with every runtime
## invariant checker armed, under the race detector. Set
## XPSIM_FUZZ_SEEDS=64 XPSIM_FUZZ_BASE=1000 for a longer shifted soak;
## a failing seed prints its exact replay command. Then five seconds
## each of native fuzzing: the -faults grammar (a plan or a typed error,
## never a panic), -trace-types, -trace-rotate's sizes, xpsim's whole
## command line (every accepted value in range), and the trace
## encoder's number paths
## (every timestamp, payload and integer byte for byte what strconv
## prints).
fuzz-smoke:
	XPSIM_FUZZ_SEEDS=$${XPSIM_FUZZ_SEEDS:-8} go test -race -count=1 -run TestFuzzSmoke ./internal/scenario/
	go test -run '^$$' -fuzz '^FuzzParseFaultSpec$$' -fuzztime 5s ./internal/faults/
	go test -run '^$$' -fuzz '^FuzzParseEventTypes$$' -fuzztime 5s ./cmd/xpsim/
	go test -run '^$$' -fuzz '^FuzzParseSize$$' -fuzztime 5s ./cmd/xpsim/
	go test -run '^$$' -fuzz '^FuzzCommandLine$$' -fuzztime 5s ./cmd/xpsim/
	go test -run '^$$' -fuzz '^FuzzAppendMicros$$' -fuzztime 5s ./internal/obs/
	go test -run '^$$' -fuzz '^FuzzAppendValue$$' -fuzztime 5s ./internal/obs/
	go test -run '^$$' -fuzz '^FuzzAppendUint$$' -fuzztime 5s ./internal/obs/
	@echo "fuzz-smoke: OK"

## cover: per-package statement coverage, with per-package enforced
## floors. The baseline congestion-control packages sit at 97: their
## conformance suites pin hand-computed algorithm steps, so a coverage
## regression there means an untested control-law branch. faults sits
## at 90: the impairment models and the spec grammar are pinned by the
## statistical property suite and the error-path tests. obs/stats back
## every reported number; untested branches there are silent data
## corruption.
COVER_FLOORS ?= faults:90 dctcp:97 rcp:97 dx:97 cubic:97 obs:80 stats:80
cover:
	@go test -cover ./internal/... . | awk '{ print }' ; \
	fail=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$(go test -cover ./internal/$$pkg/ 2>/dev/null | awk '{ for (i=1; i<=NF; i++) if ($$i == "coverage:") { sub(/%.*/, "", $$(i+1)); print $$(i+1) } }'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage figure for internal/$$pkg"; fail=1; continue; fi; \
		if [ $$(echo "$$pct" | cut -d. -f1) -lt $$floor ]; then \
			echo "cover: FAIL — internal/$$pkg at $$pct% (floor $$floor%)"; fail=1; \
		else \
			echo "cover: internal/$$pkg $$pct% >= $$floor%"; \
		fi; \
	done; \
	exit $$fail

## gate: the full determinism gate — every registered experiment,
## including the heavy realistic workloads, run serially and then at
## -procs 4, the two byte-compared with the invariant checkers armed and
## the serial run held to testdata/gate.sha256; plus the obs variant
## (stdout, trace, metrics).
gate:
	XPSIM_GATE_ALL=1 go test -run TestModeMatrix -timeout 30m -v ./internal/experiments/

# `make check` already runs `go vet ./...` through this target (check's
# first prerequisite), so vet needs no separate invocation pre-commit.
vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

## bench-gate: the budgets that need a known host or minutes of run
## time, in two stages. First TestHotPathBudget — BenchmarkHotPath, a
## single credited flow across a 5-hop chain, at 0 allocs/op, as in every
## plain `go test ./...` — with the speed floor only this target sets: at
## least HOTPATH_PKTRATE_FLOOR data packets per wall second (80% of the
## median measured when transmitter-done events stopped being queued for
## idle ports — EXPERIMENTS.md "Where the events go"; override for slower
## hosts). Packets, not events: a change that removes events lowers
## sim-events/sec, which the run still prints, while doing the same work
## faster. Then the lifecycle RSS gate: one lifecycle-managed scale-0.5
## realistic cell (≈47k WebServer flows) must peak below 36 MB of RSS,
## twice its 18 MB reading (see TestLifecycleRSSGate, which holds both
## numbers). It runs alone, in a process of its own, because VmHWM counts
## the whole process.
HOTPATH_PKTRATE_FLOOR ?= 415800

bench-gate:
	go test -run '^TestHotPathBudget$$' -count=1 -v . -args -pktrate-floor $(HOTPATH_PKTRATE_FLOOR)
	@echo "bench-gate: hot path OK (0 allocs/op, floor $(HOTPATH_PKTRATE_FLOOR) pkts/sec)"
	XPSIM_GATE_ALL=1 go test -run '^TestLifecycleRSSGate$$' -count=1 -v -timeout 30m ./internal/experiments
	@echo "bench-gate: lifecycle RSS budget OK"

fmt:
	gofmt -w $(GOFILES)
