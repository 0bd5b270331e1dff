# Developer convenience targets. The repo is pure standard library;
# everything below is plain go tooling.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check test bench-gate bench-test gate fmt vet race fuzz-smoke cover reach lines bytes

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

## reach: which production code a run enters. Builds xpsim and xpcalc
## with `go build -cover -coverpkg=./...` into a temporary directory,
## runs the flag matrix below with GOCOVERDIR set, merges the counters,
## and prints per-package statement coverage and every function at
## 0.0%. Not a tier-1 test: about 7 min on 2 cores, nearly all of it the
## `-all` row. The traced and metered
## ext-faults-*/ext-dcqcn/fig8 row (1 s) reaches the faults/* gauges,
## which no other row does. Nothing is written into the repo.
## DESIGN.md "Reachability" records the last reading and why each 0%
## function stays.
REACH_FAULTS_ALL := dup:both:0.01@1ms+5ms; corrupt:data:0.01@2ms+5ms; reorder:0.05:20us@3ms+5ms; jitter:delay:normal:2us@4ms+5ms; jitter:rate:pareto:0.1@5ms+5ms; state:data:0.01@6ms+5ms; loss:credit:0.05:corr=0.5:swR->swL@7ms+5ms
reach:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	mkdir -p $$d/bin $$d/cov $$d/out; \
	go build -cover -coverpkg=./... -o $$d/bin/xpsim ./cmd/xpsim; \
	go build -cover -coverpkg=./... -o $$d/bin/xpcalc ./cmd/xpcalc; \
	export GOCOVERDIR=$$d/cov; o=$$d/out; \
	row() { s=$$(date +%s); "$$@" >/dev/null 2>$$o/stderr || { cat $$o/stderr; echo "reach: FAIL: $$*"; exit 1; }; \
		echo "reach: $$(( $$(date +%s) - s ))s: $$*" | sed "s|$$d/bin/||; s|$$o/||g"; }; \
	x=$$d/bin/xpsim; \
	row $$x -procs 2 -scale 0.01 -seed 42 -all; \
	row $$x -procs 1 -scale 0.02 -seed 7 -trace $$o/T.jsonl -metrics $$o/M.csv -invariants -flight $$o/F.jsonl -progress fig17 ext-chaos-storm fig15 ext-classes; \
	row $$x -procs 1 -seed 7 -scale 0.05 -trace $$o/T.jsonl -metrics $$o/M.csv ext-faults-flap ext-faults-stall ext-dcqcn fig8; \
	row $$x -scale 0.02 -trace $$o/T.csv -trace-rotate 1m -trace-gzip -trace-types credit_drop,qdepth fig17; \
	row $$x -scale 0.02 -cpuprofile $$o/cpu.prof -memprofile $$o/mem.prof fig9; \
	for n in $$(seq 1 20); do row $$x -scenario-seed $$n; done; \
	row $$x -scale 0.05 -faults 'flap@10ms+2ms; stall:s0@30ms+1ms' ext-faults-flap; \
	row $$x -scale 0.05 -faults 'gemodel:credit:0.02:0.3@10ms+40ms' ext-chaos-matrix; \
	row $$x -scale 0.05 -faults 'every:20ms:roll{ stall@0ms+2ms }@10ms+80ms' ext-chaos-storm; \
	row $$x -scale 0.05 -faults '$(REACH_FAULTS_ALL)' ext-chaos-storm; \
	row $$d/bin/xpcalc; \
	go tool covdata percent -i $$d/cov; \
	echo "reach: functions at 0.0%:"; \
	go tool covdata func -i $$d/cov | awk '$$NF == "0.0%"'

## bytes: the byte check of a change that must print what its base
## prints. Builds xpsim from `git archive $(BYTES_BASE)` (default HEAD,
## the last commit) in a temporary directory and from the working tree,
## runs both on the rows below, and compares every trace and metrics
## stream and every stdout (its `(… wall)` lines dropped). Each row's
## stdout is cut at its `== <id>:` headers and compared per experiment:
## one `same`/`DIFFER` line per id names the artifacts whose text moved,
## the streams' hashes are compared per row. Streams are
## hashed through named pipes, so no trace reaches the disk (fig13 at
## -scale 0.2 alone writes more than 8 GB). Exits non-zero on any
## difference or failed run. Not a tier-1 test: a few minutes, most of it
## the -all row. The traced and metered ext-faults-*/ext-dcqcn/fig8 row
## (the only one that byte-checks those experiments' traces) takes 6 s
## for both binaries on 2 cores; the traced -faults row is the one that
## byte-checks a Params.Faults plan replacing the built-in ones. Compare against another commit with
## `make bytes BYTES_BASE=<rev>`.
BYTES_BASE ?= HEAD
bytes:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; io=$$d/io; fail=0; \
	mkdir $$d/src; git archive $(BYTES_BASE) | tar -x -C $$d/src; \
	(cd $$d/src && go build -o $$d/xpsim.base ./cmd/xpsim); \
	go build -o $$d/xpsim.work ./cmd/xpsim; \
	row() { s=$$(date +%s); \
		for b in base work; do \
			rm -rf $$io; mkdir $$io; \
			for a in "$$@"; do case $$a in $$io/*) mkfifo $$a; sha256sum <$$a >$$a.sha & ;; esac; done; \
			rm -f $$d/rc; \
			{ if $$d/xpsim.$$b "$$@" 2>$$d/err; then echo 0 >$$d/rc; else echo $$? >$$d/rc; fi; } | { grep -v 'wall)' || true; } >$$d/stdout; \
			for a in "$$@"; do case $$a in $$io/*) true <>$$a;; esac; done; wait; \
			if [ "$$(cat $$d/rc)" != 0 ]; then cat $$d/err; echo "bytes: FAIL: xpsim.$$b $$*" | sed "s|$$io/||g"; exit 1; fi; \
			for h in $$io/*.sha; do [ -e "$$h" ] || continue; echo "$${h##*/} $$(cut -c1-64 $$h)"; done >$$d/$$b.sum; \
			rm -f $$d/part.*; csplit -s -z -f $$d/part. $$d/stdout '/^== /' '{*}'; \
			for p in $$d/part.*; do echo "$$(head -1 $$p | cut -d: -f1) $$(sha256sum <$$p | cut -c1-64)"; done >$$d/$$b.out; \
		done; \
		if cmp -s $$d/base.sum $$d/work.sum && cmp -s $$d/base.out $$d/work.out; then r=same; else r=DIFFER; fail=1; diff $$d/base.sum $$d/work.sum || true; fi; \
		echo "bytes: $$r ($$(( $$(date +%s) - s ))s): $$*" | sed "s|$$io/||g"; \
		while read -r eq id h; do \
			if grep -qxF "$$eq $$id $$h" $$d/work.out; then r=same; else r=DIFFER; fi; echo "bytes:   $$r stdout $$id"; \
		done <$$d/base.out; }; \
	row -procs 1 -seed 7 -scale 0.06 -trace $$io/T.jsonl -metrics $$io/M.csv fig17 ext-failover; \
	row -procs 1 -seed 7 -scale 0.06 -trace $$io/T.csv -metrics $$io/M.csv fig17 ext-failover; \
	row -procs 1 -seed 7 -scale 0.05 -trace $$io/T.jsonl ext-chaos-storm fig13 fig16 fig2; \
	row -procs 1 -seed 7 -scale 0.05 -trace $$io/T.jsonl -metrics $$io/M.csv ext-faults-flap ext-faults-stall ext-dcqcn fig8; \
	row -procs 1 -seed 7 -scale 0.05 -trace $$io/T.jsonl -faults '$(REACH_FAULTS_ALL)' ext-chaos-storm ext-faults-flap ext-faults-stall; \
	row -procs 2 -seed 11 -scale 0.05 -all; \
	if [ $$fail != 0 ]; then echo "bytes: FAIL against $(BYTES_BASE)"; exit 1; fi; \
	echo "bytes: OK against $(BYTES_BASE)"

## lines: the program's size, as CHANGES.md and ROADMAP.md quote it:
## the non-blank lines that are not `//` comments in every Go file git
## tracks, test files and the benchmark harness (bench/) left out. A
## new file counts once it is staged (`git add`).
lines:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | grep -v '^[[:space:]]*$$' | grep -v '^[[:space:]]*//' | wc -l

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
## 520 k median measured when transmitter-done events stopped being
## queued for idle ports — EXPERIMENTS.md "Performance"; override for
## slower hosts). Packets, not events: a change that removes events lowers
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
