package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/obs/analyze"
)

// TestBenchRecord pins benchRecord's per-column averages against a
// hand-computed table, including the IsAverage row exclusion: the
// synthesized average rows WithAverages appends must contribute neither to
// the metric means nor to the row count.
func TestBenchRecord(t *testing.T) {
	tab := &eval.Table{ID: "tX", Title: "test table", Columns: []string{"M1", "M2"}}
	tab.AddRow("EM", "d1", map[string]float64{"M1": 10, "M2": 1})
	tab.AddRow("DC", "d2", map[string]float64{"M1": 20, "M2": 3})
	tab.AddRow("DC", "d3", map[string]float64{"M1": 60}) // M2 absent: not in its mean
	withAvg := tab.WithAverages()

	// WithAverages appends a DC task average and an overall average; if
	// either leaked into the means below, M1 would shift from 30 (task avg
	// 40, overall avg 30 pull it to 32 when included).
	var avgRows int
	for _, r := range withAvg.Rows {
		if r.IsAverage {
			avgRows++
		}
	}
	if avgRows != 2 {
		t.Fatalf("fixture: %d average rows, want 2", avgRows)
	}

	be := benchRecord(withAvg, 1500*time.Millisecond, 0.15, 2, 7)

	if be.ID != "tX" || be.Title != "test table" {
		t.Errorf("identity = %q/%q", be.ID, be.Title)
	}
	if be.WallSeconds != 1.5 || be.Scale != 0.15 || be.Reps != 2 || be.Seed != 7 {
		t.Errorf("run params = %+v", be)
	}
	if be.Rows != 3 {
		t.Errorf("Rows = %d, want 3 (average rows excluded)", be.Rows)
	}
	// Hand-computed: M1 = (10+20+60)/3 = 30; M2 = (1+3)/2 = 2 (d3 has no M2).
	if got := be.Metrics["M1"]; math.Abs(got-30) > 1e-9 {
		t.Errorf("M1 = %g, want 30", got)
	}
	if got := be.Metrics["M2"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("M2 = %g, want 2", got)
	}
	if len(be.Metrics) != 2 {
		t.Errorf("metrics = %v, want exactly the two columns", be.Metrics)
	}
}

// TestWriteBenchRunStampsEnv checks that BENCH_run.json carries the drill
// reports' env block and still loads through the strict `obs diff` loader.
func TestWriteBenchRunStampsEnv(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_run.json")
	run := &BenchRun{Experiments: []BenchExperiment{{ID: "tX", WallSeconds: 2, Metrics: map[string]float64{"M1": 1}}}}
	if err := writeBenchRun(path, run); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got BenchRun
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Env.GoVersion != runtime.Version() || got.Env.GOMAXPROCS != runtime.GOMAXPROCS(0) ||
		got.Env.CPU == "" || got.Env.Revision == "" {
		t.Fatalf("env = %+v", got.Env)
	}
	if secs, err := analyze.LoadBench(path); err != nil || len(secs) != 1 || secs[0].ID != "tX" {
		t.Fatalf("LoadBench = %+v, %v", secs, err)
	}
}
