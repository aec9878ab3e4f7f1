#!/usr/bin/env bash
# Builds the serving binaries and the benchmark from the checkout, then
# runs one benchmark workload. Run from the repository root:
#
#   bash servebench/run.sh --workload head|tail|fleet --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/matchd" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the repository root (needs go.mod, cmd/matchd and servebench/)" >&2
	exit 2
fi

out="$root/.bench_build/servebench"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local

go build -o "$out/bin/" ./cmd/matchd ./cmd/router ./cmd/dictbuild
(cd servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -bin "$out/bin" -work "$out" "$@"
