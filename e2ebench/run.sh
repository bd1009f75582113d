#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Start it from
# the root of a checkout of the repository:
#
#   bash e2ebench/run.sh --workload testbed-serial --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/
# in the checkout: the Go build cache, the binary, scratch data
# directories and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -root "$root" "$@"
