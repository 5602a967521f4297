package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload for a few quanta, untraced and traced,
// and checks that the correctness gate passes and that every metric of
// the run's mode is printed with its unit, the bounded ones also in the
// closing JSON line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	root := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{
				workload:  w.name,
				seed:      7,
				seconds:   1,
				trace:     traced,
				serveBin:  bin,
				root:      root,
				maxQuanta: 12,
				setups:    1,
				log:       io.Discard,
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%v: correctness gate failed: %v", w.name, traced, res.problems)
			}
			var out bytes.Buffer
			if err := report(&out, o, res); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, w.name, traced, out.Bytes())
		}
	}
}

func checkOutput(t *testing.T, workload string, traced bool, out []byte) {
	t.Helper()
	printed := make(map[string]string)
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	want := append(append([]metricDef(nil), endToEnd...), endToEndInfo...)
	bounded := endToEnd
	if traced {
		want, bounded = perLayer, perLayer
	}
	for _, m := range want {
		if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s trace=%v: metric %s printed with unit %q, want %q", workload, traced, m.Name, unit, m.Unit)
		}
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("%s trace=%v: last line is not the result: %v\n%s", workload, traced, err, last)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s trace=%v: result %s", workload, traced, last)
	}
	if len(line.Metrics) != len(bounded) {
		t.Errorf("%s trace=%v: result carries %d metrics, want %d", workload, traced, len(line.Metrics), len(bounded))
	}
	for _, m := range bounded {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s trace=%v: result metric %s = %+v, want unit %q", workload, traced, m.Name, got, m.Unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("%s: bounded metric %s is %v; it must never be 0", workload, m.Name, got.Value)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics e2ebench runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, e2ebench %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if _, ok := workloadByName(b.Workloads[i].Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to e2ebench", b.Workloads[i].Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, e2ebench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, e2ebench %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
