package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with what the program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	h, b, c := tr.newID(), tr.newID(), tr.newID()
	tr.record(h, 0, h, "http", at(0), at(10))
	tr.record(b, h, h, "serve.backend", at(2), at(8))
	tr.record(c, b, h, "cluster.search", at(3), at(7))
	tr.partitions(c, h, at(3), []time.Duration{time.Millisecond, 3 * time.Millisecond})
	self, n := tr.selfTimes()
	if n != 5 {
		t.Fatalf("recorded %d spans, want 5", n)
	}
	want := map[string]time.Duration{
		"http":          4 * time.Millisecond,
		"serve.backend": 2 * time.Millisecond,
		"cluster":       time.Millisecond,
		"partition":     2 * time.Millisecond, // mean of 1ms and 3ms
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], d)
		}
	}
}

func TestPct(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := pct(ds, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := pct(ds, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := pct(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}
