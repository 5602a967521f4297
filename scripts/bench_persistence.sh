#!/usr/bin/env sh
# Runs the persistence benchmarks (WAL append/replay, pool recovery) and
# writes the results as JSON to BENCH_persistence.json at the repo root.
# Usage: scripts/bench_persistence.sh [benchtime]   (default 1s)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"
OUT="BENCH_persistence.json"

RAW="$(go test -bench 'WALAppend|WALReplay|Recovery' -run xxx -benchmem \
	-benchtime "$BENCHTIME" ./internal/wal ./internal/server)"

printf '%s\n' "$RAW"

printf '%s\n' "$RAW" | awk -v benchtime="$BENCHTIME" -f scripts/benchjson.awk >"$OUT"

echo "wrote $OUT"
