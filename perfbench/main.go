// Command perfbench is the repository's benchmark: one in-process harness
// that builds the serving stack from a seed, drives one workload against it
// for a fixed window, checks every answer against the direct
// core.Adapted.Predict path, and prints the metrics documented in
// metrics.json. With --trace 1 it runs the workload twice, untraced and
// then traced with timing wrappers around the program's public seams, and
// prints the per-layer ledger instead.
//
//	bash perfbench/run.sh --workload warm-serve --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
)

//go:embed metrics.json
var metricsJSON []byte

// specDoc is metrics.json: the benchmark's fixed settings, the answer
// digests at the default seed, and the documentation of every metric.
type specDoc struct {
	Scale           float64           `json:"scale"`
	ZooSeed         int64             `json:"zoo_seed"`
	OpenLoopRPS     float64           `json:"open_loop_rps"`
	OpenLoopGraceS  float64           `json:"open_loop_grace_s"`
	LatenessBoundMs float64           `json:"lateness_bound_ms"`
	ReconcileSlack  float64           `json:"reconcile_slack"`
	Digests         map[string]string `json:"digests"`
	Metrics         []metricDoc       `json:"metrics"`
}

type metricDoc struct {
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	Better  string `json:"better"`
	Kind    string `json:"kind"`  // perf (compared within a bound) or invariant (compared exactly)
	Layer   string `json:"layer"` // end_to_end or per_layer
	Meaning string `json:"meaning"`
}

func loadSpec() (*specDoc, error) {
	var d specDoc
	if err := json.Unmarshal(metricsJSON, &d); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &d, nil
}

// bench is one invocation: the settings, the zoo every pass shares, and the
// set-up timings of its backbone.
type bench struct {
	doc      *specDoc
	workload string
	seed     int64
	seconds  time.Duration
	nproc    int
	workDir  string

	z     *eval.Zoo
	spans *spanBuf // the traced run's in-memory trace

	datasets, upstream, patches time.Duration
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: cold-start, warm-serve, bulk-job or routed")
	seed := flag.Int64("seed", 7, "seed of the workload's inputs: request order and arrival times, cold-start visit order, bulk-job rows")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	workDir := flag.String("workdir", ".bench_build/work", "scratch directory for bulk-job inputs, outputs and checkpoints")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-start|warm-serve|bulk-job|routed [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	doc, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{
		doc:      doc,
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		nproc:    runtime.NumCPU(),
		workDir:  *workDir,
	}
	res, err := b.run(context.Background(), *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes the workload and scores it. Every check that fails is
// printed and clears Correct.
func (b *bench) run(ctx context.Context, traced bool) (*result, error) {
	w := workloads[b.workload]
	heap := startHeapSampler(2 * time.Millisecond)
	start := time.Now()
	untracedRec := obs.NewRecorder(obs.NewRegistry(), nil)
	tracedRec := untracedRec
	if traced {
		b.spans = &spanBuf{}
		tr := obs.NewTracer(b.spans)
		tr.SeedTraceIDs(b.seed)
		tracedRec = obs.NewRecorder(obs.NewRegistry(), tr)
	}
	b.z = eval.NewZoo(b.doc.ZooSeed, b.doc.Scale)
	b.z.Rec = tracedRec
	t := time.Now()
	b.z.Downstream()
	b.z.UpstreamBundles()
	b.datasets = time.Since(t)
	t = time.Now()
	b.z.Upstream(eval.Size7B)
	b.upstream = time.Since(t)
	t = time.Now()
	b.z.Patches(eval.Size7B)
	b.patches = time.Since(t)
	keys := w.keys
	if keys == nil {
		keys = b.z.DownstreamKeys()
	}
	pool, err := poolFor(b.z, keys)
	if err != nil {
		return nil, err
	}

	b.z.Rec = untracedRec
	pu := newPass(b, untracedRec, nil)
	outU, err := w.run(ctx, pu, pool)
	pu.close()
	if err != nil {
		return nil, err
	}
	setup := pu.ready.Sub(start)
	fmt.Printf("set-up %.2fs: datasets %.2fs, upstream %.2fs, patches %.2fs, stack and pre-warm %.2fs\n",
		setup.Seconds(), b.datasets.Seconds(), b.upstream.Seconds(), b.patches.Seconds(),
		(setup - b.datasets - b.upstream - b.patches).Seconds())
	heapPeak := heap.stop()

	var pt *pass
	var outT *outcome
	if traced {
		b.z.Rec = tracedRec
		pt = newPass(b, tracedRec, newLedger())
		outT, err = w.run(ctx, pt, pool)
		pt.close()
		b.z.Rec = untracedRec
		if err != nil {
			return nil, err
		}
	}

	refs, digest, err := b.references(ctx, pool)
	if err != nil {
		return nil, err
	}
	var checks []string
	if want := b.doc.Digests[b.workload]; want != digest {
		checks = append(checks, fmt.Sprintf("answer digest %s, metrics.json records %q", digest, want))
	}
	b.printEnv(digest)

	res := &result{Metrics: map[string]metricValue{}}
	put := func(name string, v float64) {
		for _, m := range b.doc.Metrics {
			if m.Name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
				return
			}
		}
		panic("perfbench: metric " + name + " is not documented in metrics.json")
	}
	scoreU := score(outU, pool, refs)
	checks = append(checks, b.invariants(outU, scoreU)...)
	if !traced {
		res.Attempted, res.Failed = scoreU.attempted, scoreU.failed
		put("setup_s", setup.Seconds())
		put("latency_p50_ms", sliceMedian(outU.lat, 0.50))
		put("throughput_rps", perSlice(scoreU.tputOK, outU.walls))
		put("rows_per_s", perSlice(scoreU.rows, outU.walls))
		put("accuracy", accuracy(pool, refs))
		put("heap_peak_mb", heapPeak)
		fmt.Printf("%s: %d latency samples (%s) in %d slices, %d throughput slices, %d operations attempted, %d failed\n",
			b.workload, len(flatten(outU.lat)), outU.latWhat, len(outU.lat), len(outU.walls), scoreU.attempted, scoreU.failed)
	} else {
		scoreT := score(outT, pool, refs)
		checks = append(checks, b.invariants(outT, scoreT)...)
		res.Attempted = scoreU.attempted + scoreT.attempted
		res.Failed = scoreU.failed + scoreT.failed
		lm, bad := b.layers(pu, pt, outU, outT, scoreT)
		checks = append(checks, bad...)
		for name, v := range lm {
			put(name, v)
		}
		b.printLayers(lm)
	}
	if len(res.Metrics) != b.documented(traced) {
		checks = append(checks, fmt.Sprintf("printed %d metrics, metrics.json documents %d", len(res.Metrics), b.documented(traced)))
	}
	for _, c := range checks {
		fmt.Println("CHECK FAILED:", c)
	}
	res.Correct = len(checks) == 0
	return res, nil
}

// documented counts the metrics of one mode in metrics.json.
func (b *bench) documented(traced bool) int {
	layer := "end_to_end"
	if traced {
		layer = "per_layer"
	}
	n := 0
	for _, m := range b.doc.Metrics {
		if m.Layer == layer {
			n++
		}
	}
	return n
}

// invariants are the exact checks every pass must pass.
func (b *bench) invariants(o *outcome, s tally) []string {
	var bad []string
	if s.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d operations failed (first: %s)", s.failed, s.attempted, s.firstErr))
	}
	if o.transfers != int64(o.coldKeys) {
		bad = append(bad, fmt.Sprintf("%d Transfers for %d cold keys; cold starts must coalesce to exactly one", o.transfers, o.coldKeys))
	}
	if r := o.router; r != nil && (r.Failovers != 0 || r.Ejections != 0) {
		bad = append(bad, fmt.Sprintf("healthy fleet saw %d failovers and %d ejections", r.Failovers, r.Ejections))
	}
	if late := quantile(o.lateness, 0.99); late > b.doc.LatenessBoundMs {
		bad = append(bad, fmt.Sprintf("open-loop generator ran %.2fms late at p99, bound %.2fms", late, b.doc.LatenessBoundMs))
	}
	return bad
}

// tally scores one pass's records against the direct-path answers.
type tally struct {
	attempted, failed int
	tputOK, rows      []int // per throughput slice: correct and answered records
	firstErr          string
}

func score(o *outcome, pool []item, refs []string) tally {
	t := tally{tputOK: make([]int, len(o.walls)), rows: make([]int, len(o.walls))}
	for _, r := range o.recs {
		t.attempted++
		answered := r.err == nil && r.item >= 0
		ok := answered && r.ans == refs[r.item]
		if !ok {
			t.failed++
			if t.firstErr == "" {
				switch {
				case r.err != nil:
					t.firstErr = r.err.Error()
				case r.item < 0:
					t.firstErr = "answer for an unknown row"
				default:
					t.firstErr = fmt.Sprintf("%s %s: served %q, direct path %q", pool[r.item].key, pool[r.item].in.ID, r.ans, refs[r.item])
				}
			}
		}
		if answered && r.phase == o.tputPhase {
			t.rows[r.slice]++
		}
		if ok && r.phase == o.tputPhase {
			t.tputOK[r.slice]++
		}
	}
	t.attempted += o.extraFail
	t.failed += o.extraFail
	if o.extraFail > 0 && t.firstErr == "" {
		t.firstErr = fmt.Sprintf("%d evictions or job rows failed", o.extraFail)
	}
	return t
}

// accuracy is the share of the pool the program answers with the gold
// label. Every served answer must equal its pool answer, so this is the
// accuracy of what the workload serves, free of which instances a seed or
// a window happened to draw.
func accuracy(pool []item, refs []string) float64 {
	n := 0
	for i, it := range pool {
		if refs[i] == it.in.GoldText() {
			n++
		}
	}
	return ratio(float64(n), float64(len(pool)))
}

// references answers every pool instance on the direct path: one
// Zoo.TransferDataset adapter per key, built in the same zoo, predicting
// serially. It returns the answers and the SHA-256 digest of
// (key, instance id, answer) over the pool.
func (b *bench) references(ctx context.Context, pool []item) ([]string, string, error) {
	keys, byKey := groupByKey(pool)
	refs := make([]string, len(pool))
	errs := make([]error, len(keys))
	sem := make(chan struct{}, b.nproc)
	var wg sync.WaitGroup
	for k, key := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, key string) {
			defer wg.Done()
			defer func() { <-sem }()
			ad, err := b.z.TransferDataset(ctx, key, eval.Size7B)
			if err != nil {
				errs[k] = fmt.Errorf("reference transfer %s: %w", key, err)
				return
			}
			for _, i := range byKey[key] {
				refs[i] = ad.Predict(ctx, pool[i].in)
			}
		}(k, key)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, "", err
	}
	h := sha256.New()
	for i, it := range pool {
		fmt.Fprintf(h, "%s\t%s\t%s\n", it.key, it.in.ID, refs[i])
	}
	return refs, hex.EncodeToString(h.Sum(nil)), nil
}

// printEnv records the environment the result was measured in.
func (b *bench) printEnv(digest string) {
	env := map[string]any{
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"revision":      revision(),
		"source_sha256": sourceDigest(),
		"workload":      b.workload,
		"seed":          b.seed,
		"zoo_seed":      b.doc.ZooSeed,
		"scale":         b.doc.Scale,
		"seconds":       b.seconds.Seconds(),
		"digest":        digest,
	}
	line, _ := json.Marshal(map[string]any{"env": env}) // plain values always marshal
	fmt.Println(string(line))
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the build stamped, or "unknown" for a
// source tree that is not a git checkout; sourceDigest identifies the
// measured code either way.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest is the SHA-256 of the Go sources and module files of the
// tree the benchmark runs from (its working directory), path by path.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(blob))
		h.Write(blob)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
