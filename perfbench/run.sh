#!/usr/bin/env bash
# Builds the benchmark and the ebcpd daemon from this checkout's source,
# then runs one workload:
#
#   bash perfbench/run.sh --workload sim-db --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (compiler cache, binaries, temporary files)
# stays under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/ebcpd" ebcp/cmd/ebcpd
cd "$root"
exec "$out/perfbench" -root "$root" -ebcpd "$out/ebcpd" "$@"
