// Package drill is the one harness behind the `serve`, `route` and `job`
// selftests. A drill is a declarative scenario — fleet shape, load, kill
// schedule — run through one lifecycle: build a reference load on the
// direct Adapted.Predict path, bring a fleet up and wait for /readyz,
// drive the load or job, inject the kill, drain the survivors, and return
// a Report whose metrics each declare unit, direction and kind. The
// invariants the paper's serving story rests on are typed values there:
// served answers equal the same-seed direct answers, each key runs exactly
// one Transfer, and a killed job resumes with no lost or duplicated rows.
// Report.Check fails the run on any broken invariant; `obs diff` compares
// invariants exactly and perf numbers within tolerance.
//
// Scenarios take their fleet, reference and crash mechanics as seams, so
// the CLI drives subprocess backends over a real zoo while `go test` runs
// the same scenarios against in-process backends over a fake transferer.
package drill

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/serve"
)

// Report is the self-describing record every drill returns and writes.
type Report = analyze.DrillReport

// newReport starts a drill's report, stamped with the machine it runs on,
// recording config plus the drill's own key-value settings.
func newReport(drill string, config map[string]string, kv ...string) *Report {
	cfg := map[string]string{}
	for k, v := range config {
		cfg[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		cfg[kv[i]] = kv[i+1]
	}
	return &Report{
		SchemaVersion: analyze.DrillSchemaVersion,
		Drill:         drill,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Env:           CaptureEnv(),
		Config:        cfg,
		Notes:         map[string]string{},
	}
}

// CaptureEnv records the Go version, GOMAXPROCS, CPU model and VCS
// revision of the running binary.
func CaptureEnv() analyze.Env {
	rev := obs.Revision()
	if rev == "" {
		rev = "unknown"
	}
	return analyze.Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Revision:   rev,
	}
}

func cpuModel() string {
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// Finish writes the report to path (unless empty) and then checks its
// invariants, so a failing run still leaves its evidence behind.
func Finish(r *Report, path string) error {
	if path != "" {
		if err := r.WriteFile(path); err != nil {
			return err
		}
		logf("wrote %s", path)
	}
	if err := r.Check(); err != nil {
		return err
	}
	logf("selftest: PASS")
	return nil
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// note records non-empty string evidence.
func note(r *Report, key, value string) {
	if value != "" {
		r.Notes[key] = value
	}
}

func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// Reference is the direct path served answers must match: adapters built
// in-process at the fleet's seed and scale.
type Reference interface {
	Keys() []string
	Instances(key string) []*data.Instance
	Transfer(ctx context.Context, key string) (serve.Adapter, error)
}

// ZooReference is the production Reference: an independent zoo, which
// must share the fleet's (seed, scale, faults) for answers to match.
func ZooReference(z *eval.Zoo) Reference { return zooRef{z} }

type zooRef struct{ z *eval.Zoo }

func (r zooRef) Keys() []string { return r.z.DownstreamKeys() }

func (r zooRef) Instances(key string) []*data.Instance {
	if b, ok := r.z.FindDownstream(key); ok {
		return b.DS.Test
	}
	return nil
}

func (r zooRef) Transfer(ctx context.Context, key string) (serve.Adapter, error) {
	return r.z.TransferDataset(ctx, key, eval.Size7B)
}

// pickKeys returns the first n reference keys.
func pickKeys(ref Reference, n int) ([]string, error) {
	keys := ref.Keys()
	if n < 1 || n > len(keys) {
		return nil, fmt.Errorf("drill: adapters must be in [1,%d], got %d", len(keys), n)
	}
	return keys[:n], nil
}

// probe is one key's first reference instance and its direct answer.
type probe struct {
	in   *data.Instance
	want string
}

// referenceLoad builds n load items spread evenly over keys, each carrying
// its direct-path answer, and shuffles them with seed so cold starts race
// each other and batches interleave across adapters — the shape heavy
// multi-tenant traffic has. probes holds each key's first item.
func referenceLoad(ctx context.Context, ref Reference, keys []string, n int, seed int64) ([]LoadItem, map[string]probe, error) {
	logf("selftest: building %d reference adapters (direct path)...", len(keys))
	items := make([]LoadItem, 0, n)
	probes := map[string]probe{}
	perKey := (n + len(keys) - 1) / len(keys)
	for _, key := range keys {
		ad, err := ref.Transfer(ctx, key)
		if err != nil {
			return nil, nil, fmt.Errorf("drill: reference transfer %s: %w", key, err)
		}
		test := ref.Instances(key)
		for i := 0; i < perKey && len(items) < n; i++ {
			in := test[i%len(test)]
			want := ad.Predict(ctx, in)
			items = append(items, LoadItem{Key: key, In: serve.WireFrom(in), Want: want})
			if _, ok := probes[key]; !ok {
				probes[key] = probe{in: in, want: want}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, probes, nil
}
