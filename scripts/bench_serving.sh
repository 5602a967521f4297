#!/usr/bin/env sh
# Runs the serving benchmarks (query latency under full-rate ingest,
# ingest throughput) and writes the results as JSON to BENCH_serving.json
# at the repo root. The headline metric is p99-ns on
# BenchmarkQueryUnderIngest: query tail latency while one tenant ingests
# at full rate.
# Usage: scripts/bench_serving.sh [benchtime] [benchregex]
#   benchtime  default 2s
#   benchregex default runs the full serving suite; `make bench-ingest`
#              passes an ingest-only filter for fast write-path iteration
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
BENCHRE="${2:-QueryUnderIngest|IngestThroughput|IngestDurable}"
OUT="BENCH_serving.json"

RAW="$(go test -bench "$BENCHRE" -run xxx -benchmem \
	-benchtime "$BENCHTIME" ./internal/server)"

printf '%s\n' "$RAW"

printf '%s\n' "$RAW" | awk -v benchtime="$BENCHTIME" -f scripts/benchjson.awk >"$OUT"

echo "wrote $OUT"
