#!/usr/bin/env sh
# Runs the unified query-engine benchmarks and writes the results as
# JSON to BENCH_query.json at the repo root. The headline comparison is
# segscanned/op on BenchmarkUnifiedQuery/limit10 vs /fullscan: LIMIT
# pushdown must scan strictly fewer archive segments than a full scan
# of the same archive.
# Usage: scripts/bench_query.sh [benchtime]
#   benchtime  default 2s
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
OUT="BENCH_query.json"

RAW="$(go test -bench UnifiedQuery -run xxx -benchmem \
	-benchtime "$BENCHTIME" ./internal/query)"

printf '%s\n' "$RAW"

printf '%s\n' "$RAW" | awk -v benchtime="$BENCHTIME" -f scripts/benchjson.awk >"$OUT"

echo "wrote $OUT"
