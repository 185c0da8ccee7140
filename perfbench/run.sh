#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the durable sites'
# scratch directories and the span traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" -root "$root" "$@"
