package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric tables the driver
// prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eCatalog) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(spec.EndToEnd), len(e2eCatalog))
	}
	for i, m := range e2eCatalog {
		if got := spec.EndToEnd[i]; got != (entry{m.name, m.unit, m.better}) {
			t.Errorf("end_to_end[%d] = %+v, driver has %+v", i, got, m)
		}
	}
	if len(spec.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(spec.PerLayer), len(layerCatalog))
	}
	for i, m := range layerCatalog {
		if got := spec.PerLayer[i]; got != (entry{m.name, m.unit, m.better}) {
			t.Errorf("per_layer[%d] = %+v, driver has %+v", i, got, m)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the driver", i, spec.Workloads[i].Name, w.name)
		}
	}
}
