package analysis

// The replay-deterministic core: every package whose computation is
// replayed from the WAL and must reproduce bit-identical state and
// output. maporder and walltime enforce their invariants only inside
// this set — the serving layer legitimately reads wall clocks for
// telemetry and deadlines, but nothing here may.
//
// The list is import paths, not patterns; a new package on the replay
// path must be added here (docs/DETERMINISM.md holds the contract).
var deterministicPackages = map[string]bool{
	"repro":                   true, // public API facade over the pipeline
	"repro/internal/akg":      true,
	"repro/internal/ckg":      true,
	"repro/internal/core":     true,
	"repro/internal/detect":   true,
	"repro/internal/dygraph":  true,
	"repro/internal/minhash":  true,
	"repro/internal/quasi":    true,
	"repro/internal/query":    true,
	"repro/internal/rank":     true,
	"repro/internal/stream":   true,
	"repro/internal/textproc": true,
	"repro/internal/wal":      true,
}

// mapOrderExtraPackages extends maporder (but not walltime) beyond the
// replay core: the server's apply/snapshot/metrics paths feed
// replayed state and client-visible responses, so its map iterations
// must also be sorted or proven order-insensitive — but it may read
// clocks freely.
var mapOrderExtraPackages = map[string]bool{
	"repro/internal/server": true,
}

// InDeterministicSet reports whether pkgPath is in the replay-
// deterministic core (walltime's and maporder's shared scope).
func InDeterministicSet(pkgPath string) bool {
	return deterministicPackages[pkgPath]
}

// InMapOrderSet reports whether maporder applies to pkgPath.
func InMapOrderSet(pkgPath string) bool {
	return deterministicPackages[pkgPath] || mapOrderExtraPackages[pkgPath]
}
