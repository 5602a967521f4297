# Turns `go test -bench` output into the BENCH_*.json schema: one
# object per benchmark line (name with the -GOMAXPROCS suffix dropped,
# iterations, then every value/unit pair with "/" spelled "_per_"),
# plus the benchtime and the goos/goarch/cpu header lines.
# Usage: go test -bench ... | awk -v benchtime=1s -f scripts/benchjson.awk
BEGIN {
	n = 0
	print "{"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print "  \"benchmarks\": ["
}
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iterations\": %s", name, $2
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		gsub(/\//, "_per_", unit)
		printf ", \"%s\": %s", unit, $i
	}
	printf "}"
}
END {
	print ""
	print "  ],"
	printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"\n", goos, goarch, cpu
	print "}"
}
