package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload end to end at a tiny scale —
// set-ups, one round, restarts, output checks and the traced layer
// replays with their own checks — and renders both result lines.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, 2, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			r := &runner{name: name, wl: wl, seed: 2, sc: tinyScale, trace: true, work: t.TempDir()}
			start := time.Now()
			res, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("output checks failed: %v", r.problems)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, list := range []struct {
				metrics []metric
				vals    map[string]float64
			}{{e2eMetrics, res.e2e}, {layerMetrics, res.layers}} {
				if _, err := resultLine(res, list.metrics, list.vals); err != nil {
					t.Error(err)
				}
			}
			for _, m := range e2eMetrics {
				if !(res.e2e[m.name] > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, res.e2e[m.name])
				}
			}
			t.Logf("%s in %v", name, time.Since(start))
		})
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to what the
// program prints: the same workloads and the same metrics with the same
// units, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, names, units []string) {
		if len(names) != len(got) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(names), kind, len(got))
		}
		for i, m := range got {
			if names[i] != m.name || units[i] != m.unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, names[i], units[i], m.name, m.unit)
			}
		}
	}
	var names, units []string
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end-to-end", e2eMetrics, names, units)
	names, units = nil, nil
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per-layer", layerMetrics, names, units)
}
