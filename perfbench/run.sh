#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload flow-scratch --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary) and the traced
# runs' span files stay under .bench_build/ in the checkout. The build
# fails, and the script exits non-zero, when the repository's sources
# are not there.
set -euo pipefail
cd "$(dirname "$0")/.."

out=.bench_build
mkdir -p "${out}/tmp"
export GOCACHE="${PWD}/${out}/gocache"
export GOTMPDIR="${PWD}/${out}/tmp"
export TMPDIR="${PWD}/${out}/tmp"
export XDG_CONFIG_HOME="${PWD}/${out}/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "../${out}/perfbench" . >&2
exec "${out}/perfbench" "$@"
