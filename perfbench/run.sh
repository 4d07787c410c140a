#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the arguments given, from the repository root:
#
#   bash perfbench/run.sh --workload muldiv --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the Chrome trace stay under
# .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 1
fi
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's caches, temporary files and settings inside the
# checkout, and never reach for the network.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
