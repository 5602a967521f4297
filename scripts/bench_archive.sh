#!/usr/bin/env sh
# Runs the archive storage-layer benchmarks and writes the results as
# JSON to BENCH_archive.json at the repo root. The headline comparisons:
# fullscan-256seg vs fullscan-compacted (a full scan of the same 4096
# records as 256 small segments and as one compacted segment), and
# BenchmarkArchiveFootprint's shrink_x (small-segment bytes / compacted
# bytes on disk, data + sidecars). zonemap-hit-compacted shows
# predicate pushdown reading only the blocks a narrow time range
# touches.
# Usage: scripts/bench_archive.sh [benchtime]
#   benchtime  default 2s
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
OUT="BENCH_archive.json"

RAW="$(go test -bench 'ArchiveScan|ArchiveFootprint' -run xxx -benchmem \
	-benchtime "$BENCHTIME" ./internal/archive)"

printf '%s\n' "$RAW"

printf '%s\n' "$RAW" | awk -v benchtime="$BENCHTIME" -f scripts/benchjson.awk >"$OUT"

echo "wrote $OUT"
