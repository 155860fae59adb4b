package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesMetricsDoc keeps BENCHMARK.json and metrics.json,
// which documents each metric's kind and meaning, naming the same
// workloads and metrics with the same units and directions.
func TestBenchmarkFileMatchesMetricsDoc(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	doc, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if _, ok := doc.Digests[w.Name]; !ok {
			t.Errorf("metrics.json records no answer digest for %q", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the harness implements %d", names, len(workloads))
	}

	type row struct{ unit, better, layer string }
	want := map[string]row{}
	for _, m := range doc.Metrics {
		if _, dup := want[m.Name]; dup {
			t.Errorf("metrics.json documents %q twice", m.Name)
		}
		want[m.Name] = row{m.Unit, m.Better, m.Layer}
		if m.Kind != "perf" && m.Kind != "invariant" {
			t.Errorf("%s: kind %q, want perf or invariant", m.Name, m.Kind)
		}
		if m.Meaning == "" {
			t.Errorf("%s: no meaning", m.Name)
		}
	}
	got := map[string]row{}
	for _, m := range bf.EndToEnd {
		got[m.Name] = row{m.Unit, m.Better, "end_to_end"}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		got[m.Name] = row{m.Unit, m.Better, "per_layer"}
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: BENCHMARK.json has %+v, metrics.json %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s is in BENCHMARK.json but not documented in metrics.json", name)
		}
	}

	var invariants []string
	for _, m := range doc.Metrics {
		if m.Kind == "invariant" {
			invariants = append(invariants, m.Name)
		}
	}
	sort.Strings(invariants)
	for _, name := range []string{"accuracy", "cluster.ejections", "cluster.failovers", "error_rate", "serve.transfers_per_cold_key"} {
		if i := sort.SearchStrings(invariants, name); i == len(invariants) || invariants[i] != name {
			t.Errorf("%s must be documented as an invariant", name)
		}
	}
}
