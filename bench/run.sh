#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds the harness into
# .bench_build/ at the root of the checkout and runs it there with the
# arguments given. Go's build cache is kept in .bench_build/ too, so that
# nothing is read or written outside the checkout except the toolchain.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -d "$root/cmd/xpsim" ]; then
	echo "bench: no cmd/xpsim beside bench/: the benchmark builds the simulator from the repository's source" >&2
	exit 1
fi

mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$root/.bench_build/bench" .
cd "$root"
exec .bench_build/bench "$@"
