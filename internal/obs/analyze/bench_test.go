package analyze

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func benchRun(exps ...BenchExperiment) []Section {
	return (&BenchRun{SchemaVersion: 1, Experiments: exps}).Sections()
}

func exp(id string, wall float64, metrics map[string]float64) BenchExperiment {
	return BenchExperiment{ID: id, WallSeconds: wall, Metrics: metrics}
}

// drill builds a one-section document of declared metrics.
func drill(id string, ms ...Metric) []Section {
	return []Section{{ID: id, Metrics: ms}}
}

func perf(name string, v float64, better Better) Metric {
	return Metric{Name: name, Value: v, Better: better, Kind: KindPerf}
}

func inv(name string, v, want float64) Metric {
	return Metric{Name: name, Value: v, Want: &want, Kind: KindInvariant}
}

func TestDiffIdenticalRuns(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5, "Jellyfish-7B": 80.1}))
	b := benchRun(exp("table2", 12, map[string]float64{"KnowTrans-7B": 85.5, "Jellyfish-7B": 80.1}))
	d := DiffBench(a, b, DiffOptions{Strict: true})
	if d.HasRegressions() {
		t.Fatalf("identical metrics flagged: %+v", d)
	}
	if d.Unchanged != 2 {
		t.Errorf("unchanged = %d, want 2", d.Unchanged)
	}
	// Wall time differs but is informational by default.
	if len(d.WallDeltas) != 1 || d.WallDeltas[0].Class != DeltaUnchanged {
		t.Errorf("wall deltas = %+v", d.WallDeltas)
	}
}

func TestDiffScoreRegression(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 80.0}))
	d := DiffBench(a, b, DiffOptions{})
	if !d.HasRegressions() || d.Regressions != 1 {
		t.Fatalf("score drop not flagged: %+v", d)
	}
	if d.Deltas[0].Class != DeltaRegressed || d.Deltas[0].Rel >= 0 {
		t.Errorf("delta = %+v", d.Deltas[0])
	}
}

func TestDiffImprovementAndStrict(t *testing.T) {
	a := drill("table2", perf("KnowTrans-7B", 80.0, BetterHigher))
	b := drill("table2", perf("KnowTrans-7B", 85.5, BetterHigher))
	if d := DiffBench(a, b, DiffOptions{}); d.HasRegressions() || d.Improved != 1 {
		t.Fatalf("improvement misclassified: %+v", d)
	}
	// Under -strict any change gates.
	if d := DiffBench(a, b, DiffOptions{Strict: true}); !d.HasRegressions() {
		t.Fatal("strict should flag improvements too")
	}
}

// TestDiffLowerIsBetter: a declared lower-is-better metric improves when
// it drops and regresses when it rises.
func TestDiffLowerIsBetter(t *testing.T) {
	a := drill("table3", perf("Cost/query ($)", 0.004, BetterLower), perf("Latency (s)", 2.0, BetterLower))
	b := drill("table3", perf("Cost/query ($)", 0.002, BetterLower), perf("Latency (s)", 3.0, BetterLower))
	d := DiffBench(a, b, DiffOptions{})
	byMetric := map[string]DeltaClass{}
	for _, md := range d.Deltas {
		byMetric[md.Metric] = md.Class
	}
	if byMetric["Cost/query ($)"] != DeltaImproved {
		t.Errorf("cost drop = %v, want improved", byMetric["Cost/query ($)"])
	}
	if byMetric["Latency (s)"] != DeltaRegressed {
		t.Errorf("latency rise = %v, want regressed", byMetric["Latency (s)"])
	}
}

func TestDiffRelTolMasksNoise(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.0}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 84.9}))
	if d := DiffBench(a, b, DiffOptions{RelTol: 0.01}); d.HasRegressions() {
		t.Fatalf("sub-tolerance change flagged: %+v", d)
	}
	if d := DiffBench(a, b, DiffOptions{RelTol: 0.0001}); !d.HasRegressions() {
		t.Fatal("super-tolerance change not flagged")
	}
}

func TestDiffStructuralChanges(t *testing.T) {
	a := benchRun(
		exp("table2", 10, map[string]float64{"KnowTrans-7B": 85, "Gone": 1}),
		exp("fig4", 5, map[string]float64{"KnowTrans-7B": 80}),
	)
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85, "New": 2}))
	d := DiffBench(a, b, DiffOptions{})
	// Disappearing metric and disappearing experiment both gate; the new
	// metric is informational without -strict.
	if d.Regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (missing metric + missing experiment): %+v", d.Regressions, d.Deltas)
	}
	ds := DiffBench(a, b, DiffOptions{Strict: true})
	if ds.Regressions != 3 {
		t.Fatalf("strict regressions = %d, want 3: %+v", ds.Regressions, ds.Deltas)
	}
}

func TestDiffWallTolGate(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"M": 1}))
	b := benchRun(exp("table2", 15, map[string]float64{"M": 1}))
	if d := DiffBench(a, b, DiffOptions{}); d.HasRegressions() {
		t.Fatal("wall time gated without WallTol")
	}
	if d := DiffBench(a, b, DiffOptions{WallTol: 0.2}); !d.HasRegressions() {
		t.Fatal("50% wall increase not gated at WallTol=0.2")
	}
}

func TestDiffRendering(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 80.0}))
	d := DiffBench(a, b, DiffOptions{})
	var buf bytes.Buffer
	if err := d.WriteText(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table2", "KnowTrans-7B", "regressed", "1 regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff text missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"class": "regressed"`) {
		t.Errorf("diff json missing class:\n%s", buf.String())
	}
}

// TestDiffUndeclaredDirection: an experiment column declares no
// direction, so a change beyond tolerance either way is a regression.
func TestDiffUndeclaredDirection(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 80.0}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5}))
	if d := DiffBench(a, b, DiffOptions{RelTol: 0.01}); d.Regressions != 1 {
		t.Fatalf("undeclared rise = %+v, want one regression", d.Deltas)
	}
	if d := DiffBench(a, b, DiffOptions{RelTol: 0.1}); d.HasRegressions() {
		t.Fatalf("undeclared rise within tolerance flagged: %+v", d.Deltas)
	}
}

// TestDiffInvariantsExact: an invariant is compared exactly at any
// tolerance — a 1→0 verdict flip and a halved request count both gate at
// -rel-tol 1.0, as does a candidate whose value misses its own want —
// while a perf move inside tolerance passes and context is never scored.
func TestDiffInvariantsExact(t *testing.T) {
	base := drill("job", inv("byte_identical", 1, 1), inv("requests", 512, 512),
		perf("p50_us", 1000, BetterLower), Metric{Name: "hedges", Value: 256, Kind: KindContext})
	cases := []struct {
		name string
		b    []Section
		want int
	}{
		{"same", base, 0},
		{"flip", drill("job", inv("byte_identical", 0, 1), inv("requests", 512, 512), perf("p50_us", 1000, BetterLower)), 1},
		{"halved", drill("job", inv("byte_identical", 1, 1), inv("requests", 256, 256), perf("p50_us", 1000, BetterLower)), 1},
		{"perf in tol", drill("job", inv("byte_identical", 1, 1), inv("requests", 512, 512), perf("p50_us", 1900, BetterLower)), 0},
		{"context moved", drill("job", inv("byte_identical", 1, 1), inv("requests", 512, 512), perf("p50_us", 1000, BetterLower),
			Metric{Name: "hedges", Value: 3, Kind: KindContext}), 0},
	}
	for _, c := range cases {
		if d := DiffBench(base, c.b, DiffOptions{RelTol: 1.0}); d.Regressions != c.want {
			t.Errorf("%s: regressions = %d, want %d: %+v", c.name, d.Regressions, c.want, d.Deltas)
		}
	}
	broken := drill("job", inv("byte_identical", 0, 1))
	if d := DiffBench(broken, broken, DiffOptions{RelTol: 1.0}); d.Regressions != 1 {
		t.Errorf("self-diff of a broken invariant = %+v, want a regression", d.Deltas)
	}
}

func TestDrillReportCheck(t *testing.T) {
	r := &DrillReport{SchemaVersion: DrillSchemaVersion, Drill: "serve", Notes: map[string]string{"first_error": "boom"}}
	r.Invariant("mismatches", 0, 0, "count")
	r.Perf("p50_us", 10, "us", BetterLower)
	if err := r.Check(); err != nil {
		t.Fatalf("healthy report: %v", err)
	}
	r.Invariant("byte_identical", 0, 1, "bool")
	err := r.Check()
	if err == nil || !strings.Contains(err.Error(), "byte_identical = 0, want 1") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Check = %v", err)
	}
}

// TestDrillReportRoundTrip: Encode → ReadDrillReport is lossless, the
// encoding carries one metric per line, and schema violations are errors.
func TestDrillReportRoundTrip(t *testing.T) {
	r := &DrillReport{SchemaVersion: DrillSchemaVersion, Drill: "route", WallS: 1.5,
		Env:    Env{GoVersion: "go1.24.0", GOMAXPROCS: 2, CPU: "test cpu", Revision: "abc"},
		Config: map[string]string{"seed": "7"}}
	r.Invariant("requests", 512, 512, "count")
	r.Perf("throughput_rps", 900.5, "req/s", BetterHigher)
	r.Context("hedges", 12, "count")
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n    {\"name\":\"requests\",\"value\":512,\"want\":512,") {
		t.Errorf("metric lines not compact:\n%s", buf.String())
	}
	got, err := ReadDrillReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
	for _, bad := range []string{
		`{"schema_version":1,"drill":"x","env":{},"metrics":[{"name":"a","value":1,"kind":"vibe"}]}`,
		`{"schema_version":1,"drill":"x","env":{},"metrics":[{"name":"a","value":1,"better":"sideways","kind":"perf"}]}`,
		`{"schema_version":1,"drill":"x","env":{},"metrics":[{"name":"a","value":1,"kind":"invariant"}]}`,
		`{"schema_version":1,"drill":"x","env":{},"metrics":[{"name":"a","value":1,"kind":"perf"},{"name":"a","value":2,"kind":"perf"}]}`,
		`{"schema_version":2,"drill":"x","env":{},"metrics":[]}`,
		`{"schema_version":1,"drill":"x","env":{},"metrics":[],"extra":1}`,
	} {
		if _, err := ReadDrillReport([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestLoadBenchRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_run.json")
	doc := `{"schema_version":1,"experiments":[{"id":"table2","wall_seconds":1.5,"metrics":{"M":42}}],"total_wall_seconds":1.5}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	secs, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].ID != "table2" || secs[0].WallSeconds != 1.5 ||
		len(secs[0].Metrics) != 1 || secs[0].Metrics[0] != (Metric{Name: "M", Value: 42, Kind: KindPerf}) {
		t.Fatalf("loaded run = %+v", secs)
	}
	if _, err := LoadBench(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"schema_version":4,"report":{"requests":256}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBench(legacy); err == nil {
		t.Error("a document with neither experiments nor a drill name should error")
	}
}

// TestLoadBenchRunServeDoc pins the serve drill report path: a
// BENCH_serve.json report loads as one section named after its drill, its
// wall time maps onto the section, and diffing two of them gates a
// resource regression in the declared lower-is-better direction.
func TestLoadBenchRunServeDoc(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, bytesPerOp float64) string {
		t.Helper()
		r := &DrillReport{SchemaVersion: DrillSchemaVersion, Drill: "serve", WallS: 1.2}
		r.Invariant("requests", 256, 256, "count")
		r.Perf("throughput_rps", 210, "req/s", BetterHigher)
		r.Perf("bytes_per_op", bytesPerOp, "B/op", BetterLower)
		p := filepath.Join(dir, name)
		if err := r.WriteFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, err := LoadBench(write("a.json", 50000))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || a[0].ID != "serve" || a[0].WallSeconds != 1.2 || len(a[0].Metrics) != 3 {
		t.Fatalf("serve doc sections = %+v", a)
	}
	if d := DiffBench(a, a, DiffOptions{RelTol: 0.25}); d.HasRegressions() {
		t.Fatalf("self serve-diff regressed: %+v", d.Deltas)
	}
	w, err := LoadBench(write("w.json", 500000))
	if err != nil {
		t.Fatal(err)
	}
	d := DiffBench(a, w, DiffOptions{RelTol: 0.25})
	if d.Regressions != 1 || d.Deltas[0].Metric != "bytes_per_op" || d.Deltas[0].Class != DeltaRegressed {
		t.Fatalf("10x bytes_per_op diff = %+v", d.Deltas)
	}
}
