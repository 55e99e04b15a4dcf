package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

// TestBenchmarkFileMatchesDictionary holds BENCHMARK.json and the Go
// dictionary together: same workloads and reasons, same metrics, units,
// directions and bounds, in the same order.
func TestBenchmarkFileMatchesDictionary(t *testing.T) {
	bm := readBenchmarkFile(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, file []benchmarkMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the dictionary %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			want := benchmarkMetric{d.name, d.unit, d.better, d.bound}
			if file[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the dictionary %+v", kind, i, file[i], want)
			}
		}
	}
	compare("end_to_end", bm.EndToEnd, dictionary(false))
	compare("per_layer", bm.PerLayer, dictionary(true))
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// that each run passes its correctness checks and reports every metric
// BENCHMARK.json promises for its kind, once, with its unit.
func TestSmoke(t *testing.T) {
	bm := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/end_to_end"
			want := bm.EndToEnd
			if traced {
				name, want = w.name+"/traced", bm.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				r := newRun(w, toy, options{seed: 7, seconds: 0.3, trace: traced, out: t.TempDir(), procs: 2}, &out)
				if code := r.execute(); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var result struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !result.Correct || result.Failed != 0 || result.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", result.Correct, result.Attempted, result.Failed)
				}
				if len(result.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(result.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := result.Metrics[m.Name]
					switch {
					case !metricName.MatchString(m.Name):
						t.Errorf("metric name %q is malformed", m.Name)
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}
