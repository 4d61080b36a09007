package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func tinyRun(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(&options{workload: workload, seed: seed, seconds: 1, scale: "tiny", traced: traced, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s traced=%v: %d of %d operations failed: %s", workload, traced, res.Failed, res.Attempted, res.FirstError)
	}
	return res
}

// TestTinyMatchesBenchmarkJSON runs every workload at tiny scale in both
// modes and checks that exactly the workloads and metrics BENCHMARK.json
// names come out, each with the unit it states, and that no operation fails.
func TestTinyMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %s", w.Name, nameRE)
		}
	}
	for _, mode := range []struct {
		traced bool
		want   []specMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		for _, w := range workloads {
			res := tinyRun(t, w.name, 1, mode.traced)
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, mode.traced, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q does not match %s", m.Name, nameRE)
				}
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, mode.traced, m.Name)
				} else if got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				}
			}
			if mode.traced && len(res.Budget) == 0 {
				t.Errorf("%s: traced run printed no budget", w.name)
			}
		}
	}
}

// TestCountsRepeat: what a single caller counts depends on the seed and on
// nothing else.
func TestCountsRepeat(t *testing.T) {
	for _, tc := range []struct {
		workload string
		counts   []string
	}{
		{"app.traced", []string{"events_per_req", "plan_cache_hits", "plan_cache_misses"}},
		{"server.write", []string{"wal_records", "wal_bytes"}},
	} {
		read := func(seed int64) map[string]float64 {
			res := tinyRun(t, tc.workload, seed, true)
			out := map[string]float64{}
			for _, name := range tc.counts {
				m, ok := res.Metrics[name]
				if !ok {
					m, ok = res.Diagnostics[name]
				}
				if !ok {
					t.Fatalf("%s: count %s not reported", tc.workload, name)
				}
				out[name] = m.Value
			}
			return out
		}
		first, again, other := read(1), read(1), read(2)
		differs := false
		for _, name := range tc.counts {
			if first[name] != again[name] {
				t.Errorf("%s: %s is %v then %v with the same seed", tc.workload, name, first[name], again[name])
			}
			if first[name] != other[name] {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: counts %v are the same under another seed: %v", tc.workload, tc.counts, first)
		}
	}
}
