// Command e2ebench is the repository's benchmark. It builds a
// seeded workload before anything is timed, starts the real cmd/serve
// binary as a child process on loopback, replays the workload against
// it over one request connection plus one SSE stream, checks the
// server's outputs against an in-process reference run, and prints
// every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 1 it instead makes the traced run: the same inputs are
// driven in-process through each layer's public functions, timing the
// calls into every layer (see traced.go).
//
// Usage (from the repository root, after building the server):
//
//	e2ebench -serve ./serve -workload tw-ingest -seed 1 -seconds 10 -trace 0
//
// e2ebench/run.sh builds both binaries and runs this.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	root     string
	// maxQuanta caps the measured quanta (0 = sized by seconds);
	// setups is how many times the server is set up (the last one is
	// measured). Smoke tests shrink both.
	maxQuanta int
	setups    int
	log       io.Writer
}

// result is one run's outcome.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	facts     [][2]string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) fact(k string, v any) { r.facts = append(r.facts, [2]string{k, fmt.Sprint(v)}) }

// problem records a failed check; the run is then not correct.
func (r *result) problem(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "tw-ingest", "workload: tw-ingest, flood-ingest or mixed-read")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process run (per-layer metrics), 0 = end-to-end run")
	flag.StringVar(&o.serveBin, "serve", "", "path to the cmd/serve binary under test")
	flag.StringVar(&o.root, "root", ".", "checkout root; run data goes under <root>/.bench_run")
	flag.Parse()
	o.trace = trace == 1
	o.setups = 5
	o.log = os.Stderr
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// run executes one benchmark run.
func run(o options) (*result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if !o.trace {
		if _, err := os.Stat(o.serveBin); err != nil {
			return nil, fmt.Errorf("server binary: %w", err)
		}
	}
	runDir, err := filepath.Abs(filepath.Join(o.root, ".bench_run", fmt.Sprintf("%s-%d-trace%v", w.name, o.seed, o.trace)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	fmt.Fprintf(o.log, "e2ebench: planning %s seed %d\n", w.name, o.seed)
	p, err := buildPlan(w, o.seed, o.seconds, o.maxQuanta)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.fact("workload", w.name)
	res.fact("seed", o.seed)
	res.fact("plan_sha256", p.digest)
	res.fact("plan_quanta", len(p.batches))
	res.fact("nproc", runtime.NumCPU())
	res.fact("cpu_model", cpuModel())
	res.fact("go_version", runtime.Version())
	res.fact("data_on_tmpfs", onTmpfs(runDir))
	if w.openLoop {
		res.fact("offered_ingest_msgs_per_s", w.quantaPerSec*delta)
		res.fact("offered_reads_per_s", queriesPerSec)
	}
	if o.trace {
		err = runTraced(o, p, runDir, res)
	} else {
		err = runEndToEnd(o, p, runDir, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// report prints every metric of the run's mode with its unit, the
// run's facts and problems, and the closing JSON result line.
func report(out io.Writer, o options, res *result) error {
	bw := bufio.NewWriter(out)
	for _, f := range res.facts {
		fmt.Fprintf(bw, "fact %s %s\n", f[0], f[1])
	}
	for _, p := range res.problems {
		fmt.Fprintf(bw, "problem %s\n", p)
	}
	lists := [][]metricDef{endToEnd, endToEndInfo}
	bounded := endToEnd
	if o.trace {
		lists = [][]metricDef{perLayer}
		bounded = perLayer
	}
	for _, list := range lists {
		for _, m := range list {
			fmt.Fprintf(bw, "metric %-40s %14.6g %s\n", m.Name, res.values[m.Name], m.Unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(bounded))
	for _, m := range bounded {
		metrics[m.Name] = value{res.values[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// cpuModel reads the first CPU model name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// onTmpfs reports whether dir lives on a RAM-backed filesystem.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	const tmpfsMagic = 0x01021994
	return st.Type == tmpfsMagic
}
