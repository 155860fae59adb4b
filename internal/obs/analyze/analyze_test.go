package analyze

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// span builds one JSONL trace line with explicit timings so the tree
// arithmetic is deterministic.
func span(id, parent uint64, name string, startUS, durUS int64) string {
	if parent == 0 {
		return fmt.Sprintf(`{"span":%d,"name":%q,"start_us":%d,"dur_us":%d}`, id, name, startUS, durUS)
	}
	return fmt.Sprintf(`{"span":%d,"parent":%d,"name":%q,"start_us":%d,"dur_us":%d}`, id, parent, name, startUS, durUS)
}

// testTrace is a two-level run: root(1s) -> a(600ms){leaf(200ms)}, b(300ms).
// File order is span-end order (children before parents), as the Tracer
// writes it.
func testTrace() string {
	return strings.Join([]string{
		span(4, 2, "leaf", 100_000, 200_000),
		span(2, 1, "stage.a", 0, 600_000),
		span(3, 1, "stage.b", 600_000, 300_000),
		span(1, 0, "experiment", 0, 1_000_000),
	}, "\n") + "\n"
}

func TestBuildTreeAndSelfTime(t *testing.T) {
	tr, err := Load(strings.NewReader(testTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Spans != 4 || len(tr.Roots) != 1 || tr.Truncated || tr.Orphans != 0 {
		t.Fatalf("trace shape = %d spans, %d roots, trunc=%v orphans=%d",
			tr.Spans, len(tr.Roots), tr.Truncated, tr.Orphans)
	}
	root := tr.Roots[0]
	if root.Rec.Name != "experiment" || len(root.Children) != 2 {
		t.Fatalf("root = %q with %d children", root.Rec.Name, len(root.Children))
	}
	// Children ordered by start time.
	if root.Children[0].Rec.Name != "stage.a" || root.Children[1].Rec.Name != "stage.b" {
		t.Fatalf("child order = %q, %q", root.Children[0].Rec.Name, root.Children[1].Rec.Name)
	}
	// Self time = dur - children.
	if root.SelfUS != 100_000 {
		t.Errorf("root self = %d, want 100000", root.SelfUS)
	}
	if a := root.Children[0]; a.SelfUS != 400_000 {
		t.Errorf("stage.a self = %d, want 400000", a.SelfUS)
	}
}

// TestSelfTimeCoverage pins the acceptance invariant: summed self time
// across all aggregates equals the root span's duration on a complete
// trace (coverage 100%, comfortably within the 5% bound).
func TestSelfTimeCoverage(t *testing.T) {
	tr, err := Load(strings.NewReader(testTrace()))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(tr, 10)
	if rep.RootUS != 1_000_000 {
		t.Fatalf("root us = %d", rep.RootUS)
	}
	var self int64
	for _, s := range rep.Stats {
		self += s.SelfUS
	}
	if self != rep.RootUS {
		t.Errorf("Σ self = %d, want %d", self, rep.RootUS)
	}
	if rep.Coverage < 0.95 || rep.Coverage > 1.05 {
		t.Errorf("coverage = %g, want within 5%% of 1", rep.Coverage)
	}
}

func TestAggregate(t *testing.T) {
	tr, err := Load(strings.NewReader(testTrace()))
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Aggregate()
	byName := map[string]NameStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	a := byName["stage.a"]
	if a.Count != 1 || a.TotalUS != 600_000 || a.SelfUS != 400_000 || a.MaxUS != 600_000 {
		t.Errorf("stage.a stat = %+v", a)
	}
	if a.P50US != 600_000 || a.P95US != 600_000 {
		t.Errorf("stage.a quantiles = %g/%g", a.P50US, a.P95US)
	}
	// Sorted by self time: stage.a (400k) first.
	if stats[0].Name != "stage.a" {
		t.Errorf("stats[0] = %q, want stage.a", stats[0].Name)
	}
}

func TestCriticalPath(t *testing.T) {
	tr, err := Load(strings.NewReader(testTrace()))
	if err != nil {
		t.Fatal(err)
	}
	path := tr.CriticalPath()
	want := []string{"experiment", "stage.a", "leaf"}
	if len(path) != len(want) {
		t.Fatalf("path length = %d, want %d", len(path), len(want))
	}
	for i, p := range path {
		if p.Name != want[i] || p.Depth != i {
			t.Errorf("path[%d] = %q depth %d, want %q depth %d", i, p.Name, p.Depth, want[i], i)
		}
	}
}

func TestSlowest(t *testing.T) {
	tr, err := Load(strings.NewReader(testTrace()))
	if err != nil {
		t.Fatal(err)
	}
	slow := tr.Slowest(2)
	if len(slow) != 2 || slow[0].Name != "experiment" || slow[1].Name != "stage.a" {
		t.Fatalf("slowest = %+v", slow)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	ds := []int64{100, 200, 300, 400}
	if q := Quantile(ds, 0.5); q != 250 {
		t.Errorf("p50 = %g, want 250", q)
	}
	if q := Quantile(ds, 0); q != 100 {
		t.Errorf("p0 = %g, want 100", q)
	}
	if q := Quantile(ds, 1); q != 400 {
		t.Errorf("p100 = %g, want 400", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %g, want 0", q)
	}
}

// TestTruncatedFinalLine is the aborted-run contract: a trace whose final
// line was cut mid-write still loads (skipping the tail), while a
// malformed line in the middle is a hard error.
func TestTruncatedFinalLine(t *testing.T) {
	full := testTrace()
	cut := full[:len(full)-20] // chop into the last record's JSON
	tr, err := Load(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated trace should load, got %v", err)
	}
	if !tr.Truncated {
		t.Error("Truncated flag not set")
	}
	if tr.Spans != 3 {
		t.Errorf("spans = %d, want 3 (the loadable prefix)", tr.Spans)
	}
	// The root never flushed, so its children surface as orphan roots.
	if tr.Orphans != 2 || len(tr.Roots) != 2 {
		t.Errorf("orphans = %d roots = %d, want 2 and 2", tr.Orphans, len(tr.Roots))
	}

	bad := "{\"span\":1,\"name\":\"x\",\"start_us\":0,\"dur_us\":1}\n{garbage\n" + testTrace()
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("mid-stream garbage should be a hard error")
	}
}

// TestRealTracerRoundTrip drives the actual Tracer/Recorder (spans plus
// events) and checks the analyzer reassembles what it wrote, including the
// truncated-tail path on the same bytes.
func TestRealTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	rec := obs.NewRecorder(obs.NewRegistry(), tracer)

	recRoot, root := rec.StartSpan("experiment")
	for i := 0; i < 3; i++ {
		recIter, iter := recRoot.StartSpan("akb.iteration")
		recIter.Event("akb.candidate", "iter", i, "score", 90.0+float64(i), "accepted", i == 2)
		iter.End()
	}
	root.End()
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Spans != 4 || len(tr.Events) != 3 || len(tr.Roots) != 1 {
		t.Fatalf("spans=%d events=%d roots=%d", tr.Spans, len(tr.Events), len(tr.Roots))
	}
	ev := tr.Events[0]
	if !ev.IsEvent() || ev.Name != "akb.candidate" || ev.Parent == 0 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Attrs["score"] != 90.0 || ev.Attrs["accepted"] != false {
		t.Errorf("event attrs = %v", ev.Attrs)
	}
	es := tr.EventStats()
	if len(es) != 1 || es[0].Count != 3 {
		t.Errorf("event stats = %+v", es)
	}

	// Same bytes, truncated mid-final-line: still loads, flagged.
	cut := buf.Bytes()[:buf.Len()-10]
	tr2, err := Load(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated real trace should load: %v", err)
	}
	if !tr2.Truncated {
		t.Error("Truncated flag not set on cut real trace")
	}
}

func TestReportRendering(t *testing.T) {
	tr, err := Load(strings.NewReader(testTrace()))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(tr, 3)
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"experiment", "stage.a", "critical path", "self-time coverage: 100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q in:\n%s", want, out)
		}
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"self_time_coverage": 1`) {
		t.Errorf("json report missing coverage:\n%s", js.String())
	}
}
