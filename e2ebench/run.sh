#!/usr/bin/env bash
# Builds the server under test (cmd/serve) and the e2ebench program from
# the source tree in the current directory, then runs e2ebench with the
# given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload tw-ingest --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under ./.bench_build (Go build
# cache, binaries) and ./.bench_run (server data directories, traces).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
# Keep the toolchain's caches, temporary files and configuration inside
# the checkout, and never reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
# Unless its mode file says "off", the first go command in a fresh config
# directory starts a detached telemetry process that outlives the build
# (the GOTELEMETRY variable does not change the mode). Write the file
# before any go command runs.
mkdir -p "$build/config/go/telemetry"
printf 'off\n' >"$build/config/go/telemetry/mode"

go build -o "$build/serve" ./cmd/serve
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -serve "$build/serve" -root "$root" "$@"
