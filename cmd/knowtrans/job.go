package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/drill"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// runJob drives the bulk tier from the command line: `knowtrans job
// run|plan|resume -spec FILE` executes (or previews) one declarative job
// against either an in-process registry or a -backends fleet through the
// cluster router — the same engine POST /v1/jobs runs. With -selftest it
// instead runs the job drill (internal/drill): a multi-shard job against
// a spawned backend fleet, SIGKILLed mid-flight via -kill-after-shards,
// resumed, and checked for byte-identity with an uninterrupted same-seed
// run plus zero duplicated Transfers; results land in BENCH_jobs.json.
func runJob(args []string) {
	verb := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb = args[0]
		args = args[1:]
	}
	switch verb {
	case "run", "plan", "resume":
	default:
		fmt.Fprintf(os.Stderr, "knowtrans: unknown job verb %q (want run|plan|resume)\n", verb)
		usage()
		os.Exit(2)
	}
	fs := newFlagSet("job")
	specPath := fs.String("spec", "", "job spec `file` (JSON or YAML)")
	backendList := fs.String("backends", "", "comma-separated backend URLs; empty runs an in-process registry")
	checkpointDir := fs.String("checkpoint", ".knowtrans-jobs", "checkpoint log `dir` (resume reads it, run appends to it)")
	dryRun := fs.Bool("dry-run", false, "plan only: print the deterministic shard layout and exit 0")
	replication := fs.Int("replication", 2, "with -backends: distinct owners per key")
	scale := fs.Float64("scale", 0.15, "in-process resolver: dataset scale")
	seed := fs.Int64("seed", 1, "in-process resolver: master random seed")
	faultSpec := fs.String("faults", "",
		"in-process resolver: oracle fault `spec` rate=R,seed=S[,kinds=a+b]")
	killAfter := fs.Int("kill-after-shards", 0,
		"SIGKILL this process once N shards have committed (crash-recovery drills; 0 disables)")
	selftest := fs.Bool("selftest", false, "run the kill/resume acceptance gate instead of a job")
	benchPath := fs.String("bench", "BENCH_jobs.json", "selftest: write the perf record to `file` (empty to disable)")
	workdir := fs.String("workdir", "", "selftest: keep specs/checkpoints/outputs in this `dir` (default: temp, removed)")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	rec, finish := of.setupMetered(*seed)

	if *selftest {
		rep, err := drill.Job(context.Background(), drill.JobSpec{
			Spawn:       drill.ServeProcess(*scale, *seed, 4, *faultSpec),
			Reference:   drill.ZooReference(eval.NewZoo(*seed, *scale)),
			Crash:       drill.JobProcess(*replication, *seed),
			Replication: *replication,
			Seed:        *seed,
			Workdir:     *workdir,
			Rec:         rec,
			Config:      map[string]string{"scale": fmt.Sprint(*scale), "faults": *faultSpec},
		})
		finishSelftest(rep, err, *benchPath, finish)
		return
	}

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "knowtrans: job needs -spec (or -selftest)")
		usage()
		os.Exit(2)
	}
	sp, err := jobs.ParseSpecFile(*specPath)
	if err != nil {
		fatal(err)
	}

	var res serve.Resolver
	if urls := splitBackends(*backendList); len(urls) > 0 {
		r, err := cluster.New(cluster.Options{
			Backends:    urls,
			Replication: *replication,
			Seed:        *seed,
			Rec:         rec,
		})
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		res = r
	} else {
		res = serve.NewRegistry(zooTransferer(newZoo(*seed, *scale, *faultSpec, rec)), serve.Options{Rec: rec})
	}

	eng := &jobs.Engine{Res: res, CheckpointDir: *checkpointDir, Rec: rec}
	if *killAfter > 0 {
		// Crash-recovery plumbing for the selftest and check.sh: die the
		// hard way (no drain, no deferred cleanup) the instant the Nth
		// shard is durable.
		n := *killAfter
		eng.OnCommit = func(_, committed int) {
			if committed >= n {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	p, err := eng.Plan(sp)
	if err != nil {
		fatal(err)
	}
	if verb == "plan" || *dryRun {
		var b strings.Builder
		p.Render(&b)
		fmt.Print(b.String())
		if err := finish(); err != nil {
			fatal(err)
		}
		return
	}
	ckptPath := jobs.CheckpointPath(*checkpointDir, p.ID)
	if verb == "resume" {
		if _, err := os.Stat(ckptPath); err != nil {
			fatal(fmt.Errorf("job: nothing to resume: %s has no checkpoint log (%v)", p.ID, err))
		}
	}
	fmt.Printf("job %s: %d rows over %d shards → %s (checkpoint %s)\n",
		p.ID, p.Rows, len(p.Shards), sp.Output.Path, ckptPath)
	result, err := eng.Run(context.Background(), p, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("job %s: done — %d rows in %.2fs (%.0f rows/s), %d shards (%d resumed), %d row failures, %d retries\n",
		result.ID, result.Rows, result.WallS, float64(result.Rows)/result.WallS,
		result.Shards, result.ResumedShards, result.RowFailures, result.Retries)
	fmt.Printf("wrote %s\n", result.Output)
	if err := finish(); err != nil {
		fatal(err)
	}
}
