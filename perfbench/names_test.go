package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every metric BENCHMARK.json names is one the command prints, with the
// same unit, and every metric the command prints is named there.
func TestBenchmarkNamesMatchPrinted(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared, printed []metricDef) {
		t.Helper()
		units := map[string]string{}
		for _, d := range printed {
			units[d.Name] = d.Unit
		}
		seen := map[string]bool{}
		for _, d := range declared {
			u, ok := units[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: BENCHMARK.json names %s, which the command does not print", kind, d.Name)
			case u != d.Unit:
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q printed", kind, d.Name, d.Unit, u)
			}
			seen[d.Name] = true
		}
		for _, d := range printed {
			if !seen[d.Name] {
				t.Errorf("%s: the command prints %s, which BENCHMARK.json does not name", kind, d.Name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, e2eDefs)
	compare("per_layer", spec.PerLayer, layerDefs())

	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the command does not run", w.Name)
		}
	}
	for w := range workloads {
		if !names[w] {
			t.Errorf("the command runs workload %s, which BENCHMARK.json does not name", w)
		}
	}
}
