package analyze

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// BenchExperiment is the machine-readable record of one experiment run,
// the unit of the repository's bench trajectory (BENCH_run.json). The
// writer lives in cmd/knowtrans; the type lives here so analysis tooling
// and CI gates can load the documents without importing the CLI.
type BenchExperiment struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	WallSeconds float64 `json:"wall_seconds"`
	Scale       float64 `json:"scale"`
	Reps        int     `json:"reps"`
	Seed        int64   `json:"seed"`
	Rows        int     `json:"rows"`
	// Metrics holds the per-column averages of the rendered table — the
	// headline numbers (method scores, costs, round curves) in a form a
	// tracking script can diff across runs without parsing tables.
	Metrics map[string]float64 `json:"metrics"`
}

// BenchRun is the top-level BENCH_run.json document. Env is the same
// environment block the drill reports carry.
type BenchRun struct {
	SchemaVersion int               `json:"schema_version"`
	GeneratedAt   string            `json:"generated_at"`
	Env           Env               `json:"env"`
	Experiments   []BenchExperiment `json:"experiments"`
	TotalSeconds  float64           `json:"total_wall_seconds"`
}

// Kind says how `obs diff` scores a drill metric.
type Kind string

const (
	// KindInvariant is a correctness verdict with an exact expected value
	// (Want): a 0/1 check, or a count such as non_2xx = 0 or requests = N.
	// It is compared exactly at any tolerance.
	KindInvariant Kind = "invariant"
	// KindPerf is a performance number, compared within the relative
	// tolerance in its declared direction.
	KindPerf Kind = "perf"
	// KindContext is run-dependent evidence (hedge counts, shards
	// committed before a kill): recorded, never scored.
	KindContext Kind = "context"
)

// Better is a metric's improvement direction. The empty direction is
// undeclared: any change beyond tolerance is a regression.
type Better string

const (
	BetterLower  Better = "lower"
	BetterHigher Better = "higher"
)

// Metric is one self-describing number of a bench document.
type Metric struct {
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Want   *float64 `json:"want,omitempty"` // invariants only
	Unit   string   `json:"unit,omitempty"`
	Better Better   `json:"better,omitempty"`
	Kind   Kind     `json:"kind"`
}

// Env records the machine and build a report was measured on, so a
// trajectory only compares like with like.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Revision   string `json:"revision"`
}

// DrillSchemaVersion is the version of the DrillReport document.
const DrillSchemaVersion = 1

// DrillReport is the self-describing bench document of one drill
// (BENCH_serve.json, BENCH_cluster.json, BENCH_jobs.json) or benchmark
// ledger (BENCH_allocs.json): the environment, the configuration asked
// for, string evidence, and metrics that each declare unit, direction and
// kind. WallS is informational unless `obs diff -wall-tol` gates it.
type DrillReport struct {
	SchemaVersion int               `json:"schema_version"`
	Drill         string            `json:"drill"`
	GeneratedAt   string            `json:"generated_at,omitempty"`
	Env           Env               `json:"env"`
	WallS         float64           `json:"wall_s,omitempty"`
	Config        map[string]string `json:"config,omitempty"`
	Notes         map[string]string `json:"notes,omitempty"`
	Metrics       []Metric          `json:"metrics"`
}

// Invariant appends a metric whose value must equal want exactly.
func (r *DrillReport) Invariant(name string, value, want float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Want: &want, Unit: unit, Kind: KindInvariant})
}

// Perf appends a performance metric compared in direction better.
func (r *DrillReport) Perf(name string, value float64, unit string, better Better) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, Better: better, Kind: KindPerf})
}

// Context appends unscored evidence.
func (r *DrillReport) Context(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, Kind: KindContext})
}

// Check fails on every invariant whose value is not its Want.
func (r *DrillReport) Check() error {
	var broken []string
	for _, m := range r.Metrics {
		if m.Kind == KindInvariant && m.Want != nil && m.Value != *m.Want {
			broken = append(broken, fmt.Sprintf("%s = %g, want %g", m.Name, m.Value, *m.Want))
		}
	}
	if len(broken) == 0 {
		return nil
	}
	msg := fmt.Sprintf("%s drill: broken invariants: %s", r.Drill, strings.Join(broken, "; "))
	if first := r.Notes["first_error"]; first != "" {
		msg += " (first error: " + first + ")"
	}
	return errors.New(msg)
}

// validate enforces the schema: a known version, a drill name, and
// uniquely named metrics of a known kind and direction, where exactly the
// invariants carry a Want and every number is finite.
func (r *DrillReport) validate() error {
	if r.SchemaVersion != DrillSchemaVersion {
		return fmt.Errorf("drill report: schema_version %d, want %d", r.SchemaVersion, DrillSchemaVersion)
	}
	if r.Drill == "" {
		return errors.New("drill report: no drill name")
	}
	if !finite(r.WallS) {
		return errors.New("drill report: wall_s is not finite")
	}
	seen := make(map[string]bool, len(r.Metrics))
	for _, m := range r.Metrics {
		switch {
		case m.Name == "" || seen[m.Name]:
			return fmt.Errorf("drill report: empty or duplicate metric name %q", m.Name)
		case m.Kind != KindInvariant && m.Kind != KindPerf && m.Kind != KindContext:
			return fmt.Errorf("drill report: metric %s has unknown kind %q", m.Name, m.Kind)
		case m.Better != "" && m.Better != BetterLower && m.Better != BetterHigher:
			return fmt.Errorf("drill report: metric %s has unknown better %q", m.Name, m.Better)
		case (m.Kind == KindInvariant) != (m.Want != nil):
			return fmt.Errorf("drill report: metric %s: want is required on invariants and only there", m.Name)
		case !finite(m.Value) || (m.Want != nil && !finite(*m.Want)):
			return fmt.Errorf("drill report: metric %s is not finite", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ReadDrillReport decodes and validates one drill report; unknown fields,
// kinds and directions are errors. Empty maps and lists decode as nil, so
// a read → Encode → read round trip is a fixed point.
func ReadDrillReport(blob []byte) (*DrillReport, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var r DrillReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("drill report: %w", err)
	}
	if len(r.Config) == 0 {
		r.Config = nil
	}
	if len(r.Notes) == 0 {
		r.Notes = nil
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Encode writes the report as indented JSON with one metric per line, so
// a diff of two documents reads metric by metric.
func (r *DrillReport) Encode(w io.Writer) error {
	if err := r.validate(); err != nil {
		return err
	}
	head := *r
	head.Metrics = nil
	hb, err := json.MarshalIndent(head, "", "  ")
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.Write(bytes.TrimSuffix(hb, []byte("null\n}")))
	b.WriteString("[\n")
	for i, m := range r.Metrics {
		mb, err := json.Marshal(m)
		if err != nil {
			return err
		}
		b.WriteString("    ")
		b.Write(mb)
		if i < len(r.Metrics)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	_, err = w.Write(b.Bytes())
	return err
}

// WriteFile encodes the report to path.
func (r *DrillReport) WriteFile(path string) error {
	var b bytes.Buffer
	if err := r.Encode(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Section is one comparable unit of a bench document: an experiment of a
// BENCH_run.json, or a whole drill report.
type Section struct {
	ID          string
	WallSeconds float64
	Metrics     []Metric
}

// Sections flattens the run: each experiment column becomes a perf metric
// of undeclared direction.
func (run *BenchRun) Sections() []Section {
	out := make([]Section, 0, len(run.Experiments))
	for _, e := range run.Experiments {
		names := make([]string, 0, len(e.Metrics))
		for n := range e.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		sec := Section{ID: e.ID, WallSeconds: e.WallSeconds}
		for _, n := range names {
			sec.Metrics = append(sec.Metrics, Metric{Name: n, Value: e.Metrics[n], Kind: KindPerf})
		}
		out = append(out, sec)
	}
	return out
}

// LoadBench reads a BENCH_run.json experiment record or a drill report
// (recognized by its "drill" field) into comparable sections. Both decode
// strictly: an unknown field is an error.
func LoadBench(path string) ([]Section, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	var probe struct {
		Drill       *string         `json:"drill"`
		Experiments json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	switch {
	case probe.Drill != nil:
		r, err := ReadDrillReport(blob)
		if err != nil {
			return nil, fmt.Errorf("analyze: %s: %w", path, err)
		}
		return []Section{{ID: r.Drill, WallSeconds: r.WallS, Metrics: r.Metrics}}, nil
	case probe.Experiments != nil:
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		var run BenchRun
		if err := dec.Decode(&run); err != nil {
			return nil, fmt.Errorf("analyze: %s: %w", path, err)
		}
		return run.Sections(), nil
	}
	return nil, fmt.Errorf("analyze: %s is neither a drill report nor an experiment record", path)
}

// DeltaClass classifies one metric comparison.
type DeltaClass string

const (
	DeltaUnchanged DeltaClass = "unchanged"
	DeltaImproved  DeltaClass = "improved"
	DeltaRegressed DeltaClass = "regressed"
	DeltaOnlyInA   DeltaClass = "only_in_a"
	DeltaOnlyInB   DeltaClass = "only_in_b"
)

// MetricDelta is the comparison of one metric across two bench documents.
type MetricDelta struct {
	Experiment string     `json:"experiment"`
	Metric     string     `json:"metric"`
	A          float64    `json:"a"`
	B          float64    `json:"b"`
	Rel        float64    `json:"rel"` // (b-a)/max(|a|,eps), signed
	Class      DeltaClass `json:"class"`
}

// DiffOptions tunes the bench comparison.
type DiffOptions struct {
	// RelTol is the relative change below which a metric counts as
	// unchanged. Zero means any change is significant — the determinism
	// gate's setting.
	RelTol float64
	// WallTol, when > 0, additionally gates per-experiment wall time: a
	// relative increase beyond it is a regression. Zero ignores wall time
	// (it is noisy and reported informationally only).
	WallTol float64
	// Strict escalates improvements and structural changes (experiments or
	// metrics present on one side only) to regressions, turning the diff
	// into an any-change gate.
	Strict bool
}

// BenchDiff is the outcome of comparing two bench documents.
type BenchDiff struct {
	Deltas      []MetricDelta `json:"deltas"`
	Regressions int           `json:"regressions"`
	Improved    int           `json:"improved"`
	Unchanged   int           `json:"unchanged"`
	// WallDeltas reports per-experiment wall-time changes (always
	// informational unless WallTol gated them).
	WallDeltas []MetricDelta `json:"wall_deltas,omitempty"`
}

// HasRegressions reports whether the diff should fail a gate.
func (d *BenchDiff) HasRegressions() bool { return d.Regressions > 0 }

// DiffBench compares two loaded bench documents metric by metric.
// Sections are matched by id, metrics by name, and each is scored by the
// baseline's (A's) declaration: invariants exactly, perf metrics within
// RelTol in their direction, context metrics not at all.
func DiffBench(a, b []Section, opt DiffOptions) *BenchDiff {
	d := &BenchDiff{}
	byID := func(secs []Section) map[string]Section {
		m := make(map[string]Section, len(secs))
		for _, s := range secs {
			m[s.ID] = s
		}
		return m
	}
	am, bm := byID(a), byID(b)
	ids := make([]string, 0, len(am)+len(bm))
	for id := range am {
		ids = append(ids, id)
	}
	for id := range bm {
		if _, ok := am[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	for _, id := range ids {
		as, aok := am[id]
		bs, bok := bm[id]
		switch {
		case !bok:
			d.addStructural(opt, MetricDelta{Experiment: id, Metric: "*", Class: DeltaOnlyInA})
			continue
		case !aok:
			d.addStructural(opt, MetricDelta{Experiment: id, Metric: "*", Class: DeltaOnlyInB})
			continue
		}
		byName := func(ms []Metric) map[string]Metric {
			out := make(map[string]Metric, len(ms))
			for _, m := range ms {
				if m.Kind != KindContext {
					out[m.Name] = m
				}
			}
			return out
		}
		amet, bmet := byName(as.Metrics), byName(bs.Metrics)
		names := make([]string, 0, len(amet)+len(bmet))
		for n := range amet {
			names = append(names, n)
		}
		for n := range bmet {
			if _, ok := amet[n]; !ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			am, aok := amet[n]
			bm, bok := bmet[n]
			switch {
			case !bok:
				d.addStructural(opt, MetricDelta{Experiment: id, Metric: n, A: am.Value, Class: DeltaOnlyInA})
				continue
			case !aok:
				d.addStructural(opt, MetricDelta{Experiment: id, Metric: n, B: bm.Value, Class: DeltaOnlyInB})
				continue
			}
			var md MetricDelta
			if am.Kind == KindInvariant {
				md = classify(id, n, am.Value, bm.Value, 0, "")
				if bm.Want != nil && bm.Value != *bm.Want {
					md.Class = DeltaRegressed
				}
			} else {
				md = classify(id, n, am.Value, bm.Value, opt.RelTol, am.Better)
			}
			if opt.Strict && md.Class == DeltaImproved {
				md.Class = DeltaRegressed
			}
			switch md.Class {
			case DeltaRegressed:
				d.Regressions++
			case DeltaImproved:
				d.Improved++
			default:
				d.Unchanged++
			}
			d.Deltas = append(d.Deltas, md)
		}
		// Wall time: informational, gated only by WallTol.
		wd := classify(id, "wall_seconds", as.WallSeconds, bs.WallSeconds, opt.WallTol, BetterLower)
		if opt.WallTol <= 0 {
			if wd.Class == DeltaRegressed || wd.Class == DeltaImproved {
				wd.Class = DeltaUnchanged
			}
		} else if wd.Class == DeltaRegressed {
			d.Regressions++
		}
		d.WallDeltas = append(d.WallDeltas, wd)
	}
	return d
}

// addStructural records a one-sided experiment or metric. Disappearing data
// always gates (a metric you stopped measuring cannot prove it didn't
// regress); data that is new on the B side gates only under Strict.
func (d *BenchDiff) addStructural(opt DiffOptions, md MetricDelta) {
	if md.Class == DeltaOnlyInA || opt.Strict {
		d.Regressions++
	}
	d.Deltas = append(d.Deltas, md)
}

// classify scores one change: within tol it is unchanged, otherwise it
// improves or regresses by direction, and an undeclared direction makes
// any change a regression.
func classify(exp, metric string, a, b, tol float64, better Better) MetricDelta {
	md := MetricDelta{Experiment: exp, Metric: metric, A: a, B: b}
	den := math.Abs(a)
	if den < 1e-12 {
		den = 1e-12
	}
	md.Rel = (b - a) / den
	switch {
	case math.Abs(md.Rel) <= tol || a == b:
		md.Class = DeltaUnchanged
	case better != "" && (md.Rel < 0) == (better == BetterLower):
		md.Class = DeltaImproved
	default:
		md.Class = DeltaRegressed
	}
	return md
}

// WriteJSON emits the diff as indented JSON.
func (d *BenchDiff) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteText renders the diff as an aligned table: every changed metric,
// then a summary line. Unchanged metrics are elided unless verbose.
func (d *BenchDiff) WriteText(w io.Writer, verbose bool) error {
	var sb strings.Builder
	rows := [][]string{{"EXPERIMENT", "METRIC", "A", "B", "REL", "CLASS"}}
	emit := func(md MetricDelta) {
		rows = append(rows, []string{
			md.Experiment, md.Metric,
			fmt.Sprintf("%.4g", md.A), fmt.Sprintf("%.4g", md.B),
			fmt.Sprintf("%+.2f%%", 100*md.Rel), string(md.Class),
		})
	}
	for _, md := range d.Deltas {
		if verbose || md.Class != DeltaUnchanged {
			emit(md)
		}
	}
	for _, md := range d.WallDeltas {
		if verbose {
			emit(md)
		}
	}
	if len(rows) > 1 {
		writeAligned(&sb, rows)
	} else {
		sb.WriteString("  (no metric changes)\n")
	}
	fmt.Fprintf(&sb, "\n%d regressed, %d improved, %d unchanged\n",
		d.Regressions, d.Improved, d.Unchanged)
	_, err := io.WriteString(w, sb.String())
	return err
}
