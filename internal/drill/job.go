package drill

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/serve"
)

// The job drill's fleet and job shape.
const (
	JobBackends  = 2
	JobRows      = 64
	JobShards    = 8
	JobKillAfter = 2 // committed shards before the crash
)

// Crash runs the job of specPath over the fleet at urls, checkpointing
// into checkpointDir, and kills it once killAfter shards have committed.
// It returns the run's error: nil means the job was never killed.
type Crash func(ctx context.Context, specPath string, urls []string, checkpointDir string, killAfter int) error

// JobSpec is the job drill: one bulk job run uninterrupted, the same rows
// run again and crashed mid-flight, then resumed from its checkpoint.
type JobSpec struct {
	Spawn       Spawn
	Reference   Reference // only its first key's instances are used
	Crash       Crash
	Replication int
	Seed        int64
	// Workdir keeps specs, checkpoints and outputs; empty uses a
	// temporary directory that is removed afterwards.
	Workdir string
	Rec     *obs.Recorder
	Config  map[string]string
}

// Job runs the job drill. Its invariants: the plan renders
// byte-deterministically, the crashed run really died with some but not
// all shards durable, a torn checkpoint tail is tolerated, the resume
// adopts exactly the shards committed before the kill, the resumed output
// is byte-identical to the uninterrupted run with zero lost rows and zero
// duplicated Transfers across the fleet, every error body is the
// canonical envelope, and the fleet drains clean.
func Job(ctx context.Context, s JobSpec) (*Report, error) {
	work := s.Workdir
	if work == "" {
		var err error
		if work, err = os.MkdirTemp("", "knowtrans-job-drill-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(work)
	} else if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}

	// The input: the first reference dataset's test split, cycled to the
	// row count under fresh IDs, in one dpgen-format file.
	key := s.Reference.Keys()[0]
	test := s.Reference.Instances(key)
	task, _, _ := strings.Cut(key, "/")
	ds := &data.Dataset{Name: "bulk", Task: task}
	for i := 0; i < JobRows; i++ {
		cp := *test[i%len(test)]
		cp.ID = fmt.Sprintf("bulk-%03d", i)
		ds.Test = append(ds.Test, &cp)
	}
	input := filepath.Join(work, "input.json")
	var buf bytes.Buffer
	if err := dataio.EncodeJSON(ds, "", &buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(input, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}

	// Two specs over the same input and adapter, differing only in output
	// path (so they are distinct jobs with distinct checkpoint logs): A
	// runs uninterrupted, B is crashed and resumed.
	writeSpec := func(name, out string) (string, *jobs.Spec, error) {
		blob := fmt.Sprintf(`{
  "adapter": %q,
  "input": {"path": %q},
  "output": {"path": %q},
  "shards": %d,
  "limits": {"concurrency": 8, "shard_parallelism": 2, "retries": 3, "row_timeout_s": 60}
}`, key, input, out, JobShards)
		path := filepath.Join(work, name)
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			return "", nil, err
		}
		sp, err := jobs.ParseSpecFile(path)
		return path, sp, err
	}
	outA, outB := filepath.Join(work, "outA.csv"), filepath.Join(work, "outB.csv")
	_, spA, err := writeSpec("specA.json", outA)
	if err != nil {
		return nil, err
	}
	specBPath, spB, err := writeSpec("specB.json", outB)
	if err != nil {
		return nil, err
	}

	logf("selftest: spawning %d backends...", JobBackends)
	fl, err := startFleet(s.Spawn, JobBackends)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	urls := fl.urls()
	envelopeOK := probeErrorEnvelope(urls[0])

	router, err := cluster.New(cluster.Options{Backends: urls, Replication: s.Replication, Seed: s.Seed, Rec: s.Rec})
	if err != nil {
		return nil, err
	}
	defer router.Close()

	// Plan determinism: the same spec must render byte-identical plans.
	eng := &jobs.Engine{Res: router, CheckpointDir: filepath.Join(work, "ckptA"), Rec: s.Rec}
	var renders [2]string
	for i := range renders {
		p, err := eng.Plan(spA)
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		p.Render(&sb)
		renders[i] = sb.String()
	}

	logf("selftest: job A — %d rows over %d shards, uninterrupted", JobRows, JobShards)
	pA, err := eng.Plan(spA)
	if err != nil {
		return nil, err
	}
	resA, err := eng.Run(ctx, pA, nil)
	if err != nil {
		return nil, fmt.Errorf("drill: reference job run: %w", err)
	}

	logf("selftest: job B — same rows, killed after %d committed shards", JobKillAfter)
	ckptB := filepath.Join(work, "ckptB")
	crashErr := s.Crash(ctx, specBPath, urls, ckptB, JobKillAfter)
	logPath := jobs.CheckpointPath(ckptB, spB.ID())
	st, err := jobs.ReadLog(logPath)
	if err != nil {
		return nil, fmt.Errorf("drill: reading post-kill checkpoint: %w", err)
	}
	committed := len(st.Shards)
	logf("selftest: killed run left %d/%d committed shards", committed, JobShards)

	// Tear the checkpoint tail the way a second kill mid-append would, and
	// require recovery to tolerate it.
	if err := appendFile(logPath, `{"type":"shard","shard":99,"answers":["torn`); err != nil {
		return nil, err
	}
	st2, err := jobs.ReadLog(logPath)
	tornOK := err == nil && st2.Truncated && len(st2.Shards) == committed

	logf("selftest: resuming job B from its checkpoint...")
	engB := &jobs.Engine{Res: router, CheckpointDir: ckptB, Rec: s.Rec}
	pB, err := engB.Plan(spB)
	if err != nil {
		return nil, err
	}
	resB, err := engB.Run(ctx, pB, nil)
	if err != nil {
		return nil, fmt.Errorf("drill: resume: %w", err)
	}

	blobA, errA := os.ReadFile(outA)
	blobB, errB := os.ReadFile(outB)
	identical := errA == nil && errB == nil && bytes.Equal(blobA, blobB)

	// Duplicate-Transfer audit: across job A, the crashed run and the
	// resume, no adapter may have been transferred twice anywhere in the
	// fleet.
	duplicates := 0
	for _, u := range urls {
		var ar serve.AdaptersResponse
		if err := getJSON(u+"/v1/adapters", &ar); err != nil {
			return nil, fmt.Errorf("drill: adapters probe %s: %w", u, err)
		}
		for _, ks := range ar.Adapters {
			if ks.Transfers > 1 {
				duplicates += int(ks.Transfers - 1)
				logf("selftest: backend %s transferred %s %d times", u, ks.Key, ks.Transfers)
			}
		}
	}
	live, clean := fl.drain()

	r := newReport("job", s.Config, "adapter", key, "seed", fmt.Sprint(s.Seed), "backends", fmt.Sprint(JobBackends),
		"replication", fmt.Sprint(s.Replication), "killed_after_shards", fmt.Sprint(JobKillAfter))
	r.WallS = resA.WallS + resB.WallS
	if crashErr != nil {
		note(r, "crash", crashErr.Error())
	}

	r.Invariant("rows", float64(resB.Rows), JobRows, "rows")
	r.Invariant("shards", float64(resB.Shards), JobShards, "shards")
	r.Invariant("plan_deterministic", b2f(renders[0] == renders[1]), 1, "bool")
	r.Invariant("killed_run_died", b2f(crashErr != nil), 1, "bool")
	r.Invariant("kill_left_partial", b2f(committed >= JobKillAfter && committed < JobShards && !st.Done), 1, "bool")
	r.Invariant("truncated_tail_recovered", b2f(tornOK), 1, "bool")
	r.Invariant("resumed_equals_committed", b2f(resB.ResumedShards == committed), 1, "bool")
	r.Invariant("byte_identical", b2f(identical), 1, "bool")
	r.Invariant("row_failures", float64(resA.RowFailures+resB.RowFailures), 0, "rows")
	r.Invariant("duplicate_transfers", float64(duplicates), 0, "count")
	r.Invariant("error_envelope", b2f(envelopeOK), 1, "bool")
	r.Invariant("drained_clean", float64(clean), float64(live), "backends")
	r.Perf("rows_per_s", float64(resA.Rows+resB.Rows)/r.WallS, "rows/s", analyze.BetterHigher)
	r.Context("committed_before_kill", float64(committed), "shards")
	r.Context("resumed_shards", float64(resB.ResumedShards), "shards")
	r.Context("retries", float64(resA.Retries+resB.Retries), "count")

	logf("selftest: %d rows, %d shards, resumed %d of %d committed, %d row failures, %d duplicate transfers",
		resB.Rows, resB.Shards, resB.ResumedShards, committed, resA.RowFailures+resB.RowFailures, duplicates)
	logf("selftest: byte_identical=%v plan_deterministic=%v (%.2fs wall)", identical, renders[0] == renders[1], r.WallS)
	return r, nil
}

// probeErrorEnvelope reports whether one backend answers an
// unknown-dataset predict with the canonical error envelope: 404,
// not_found, not retryable.
func probeErrorEnvelope(url string) bool {
	body := `{"adapter":"EM/NoSuchDataset","instance":{"id":"p","candidates":["a","b"]}}`
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		logf("selftest: envelope probe: %v", err)
		return false
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	eb, ok := serve.ParseErrorEnvelope(buf.Bytes())
	if resp.StatusCode != http.StatusNotFound || !ok || eb.Code != serve.CodeNotFound || eb.Retryable {
		logf("selftest: envelope probe: status %d, body is not the canonical envelope: %s", resp.StatusCode, buf.String())
		return false
	}
	logf("selftest: error envelope ok (code=%s retryable=%v)", eb.Code, eb.Retryable)
	return true
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func appendFile(path, s string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
