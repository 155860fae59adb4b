package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/drill"
	"repro/internal/eval"
	"repro/internal/obs/analyze"
)

// The BENCH_run.json document types live in internal/obs/analyze so the
// `knowtrans obs diff` gate and other tooling can load run records without
// importing the CLI; this package keeps the writer side.
type (
	// BenchExperiment is the machine-readable record of one experiment run.
	BenchExperiment = analyze.BenchExperiment
	// BenchRun is the top-level BENCH_run.json document.
	BenchRun = analyze.BenchRun
)

// benchRecord summarizes one finished experiment table.
func benchRecord(t *eval.Table, wall time.Duration, scale float64, reps int, seed int64) BenchExperiment {
	be := BenchExperiment{
		ID:          t.ID,
		Title:       t.Title,
		WallSeconds: wall.Seconds(),
		Scale:       scale,
		Reps:        reps,
		Seed:        seed,
		Metrics:     map[string]float64{},
	}
	for _, r := range t.Rows {
		if !r.IsAverage {
			be.Rows++
		}
	}
	for _, c := range t.Columns {
		be.Metrics[c] = t.Average(c)
	}
	return be
}

// writeBenchRun writes the run record as indented JSON.
func writeBenchRun(path string, run *BenchRun) error {
	run.SchemaVersion = 1
	run.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	run.Env = drill.CaptureEnv()
	var total float64
	for _, e := range run.Experiments {
		total += e.WallSeconds
	}
	run.TotalSeconds = total
	blob, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
