package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestWorkloadsTiny runs every workload at tiny scale, untraced and
// traced, and requires every named metric to be reported and every
// correctness check to pass.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				o := options{workload: w.name, seed: 7, seconds: 1, trace: trace, out: t.TempDir(), tiny: true}
				res, err := execute(w, o)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s missing or with unit %q", trace, d.Name, m.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", d.Name, m.Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workloads and
// metrics in step with what the program runs and prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name       string
		json, prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.json), len(c.prog))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, c.json[i], c.prog[i])
			}
		}
	}
}
