#!/usr/bin/env bash
# Builds the decode server and the benchmark from the tree it sits in,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload mc_batch --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory (Go build cache included), so the run reads and writes only
# inside the checkout. Outside a repository checkout it exits non-zero
# before building or printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/serve" ]; then
	echo "perfbench: run from the root of the repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
# The run manifest asks git for the revision; keep git from searching
# above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go build -o "$out/serve" ./cmd/serve >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve-bin "$out/serve" -out "$out/out" "$@"
