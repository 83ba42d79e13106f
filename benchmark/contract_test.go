package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestContractMatchesProgram keeps BENCHMARK.json and the program in step:
// the same workloads with the same reasons, and the same metric names and
// units in both lists, so a result line never misses a listed metric.
func TestContractMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit, Why string }
	var c struct {
		Workloads []listed `json:"workloads"`
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	empty := &run{tcr: newTracer()}
	same := func(list string, want []listed, got []namedMetric) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", list, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", list, i, want[i].Name, want[i].Unit, got[i].name, got[i].Unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, empty.endToEnd()[:contractEndToEnd])
	same("per_layer", c.PerLayer, empty.perLayer())
}
