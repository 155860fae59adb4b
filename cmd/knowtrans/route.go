package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/drill"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// runRoute starts the sharded serving tier: a consistent-hash router over
// a fleet of `knowtrans serve` backends, exposing the exact same HTTP API
// a single backend does (the router implements serve.Resolver). With
// -selftest it instead runs the route drill (internal/drill) over a
// spawned 3-backend fleet, SIGKILLing one backend mid-load; results land
// in BENCH_cluster.json.
func runRoute(args []string) {
	fs := newFlagSet("route")
	addr := fs.String("addr", "localhost:8090", "router listen address")
	backendList := fs.String("backends", "", "comma-separated backend base URLs, e.g. http://10.0.0.7:8080,http://10.0.0.8:8080")
	replication := fs.Int("replication", 2, "distinct backends owning each key (primary + replicas)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "base /readyz probe period per backend")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "one health probe's deadline")
	failThreshold := fs.Int("fail-threshold", 2, "consecutive probe failures that eject a backend")
	hedgeDelay := fs.Duration("hedge-delay", 0, "fixed backup-request delay (0 = p95-derived, negative disables hedging)")
	hedgeMin := fs.Duration("hedge-min", time.Millisecond, "lower clamp for the p95-derived hedge delay")
	hedgeMax := fs.Duration("hedge-max", time.Second, "upper clamp for the p95-derived hedge delay")
	retryBudget := fs.Int("retry-budget", 2, "extra attempts (hedges + failovers) per request beyond the first")
	attemptTimeout := fs.Duration("attempt-timeout", 60*time.Second, "one backend HTTP call's deadline")
	reqTimeout := fs.Duration("timeout", 120*time.Second, "per-request deadline at the router")
	maxInflight := fs.Int("max-inflight", 0, "shed predicts with 429 + Retry-After past this many in flight (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long SIGTERM waits for in-flight requests before the router exits anyway")
	seed := fs.Int64("seed", 1, "seed for probe jitter (and the selftest's load)")
	jobsDir := fs.String("jobs-dir", "",
		"mount the bulk-job API (POST/GET /v1/jobs) with checkpoint logs in this `dir` (empty disables)")
	maxJobs := fs.Int("max-jobs", 4, "with -jobs-dir: concurrent bulk jobs before 429")
	selftest := fs.Bool("selftest", false, "run the fault-tolerance gate instead of routing forever")
	scale := fs.Float64("scale", 0.15, "selftest: dataset scale for the spawned backends")
	faultSpec := fs.String("faults", "",
		"selftest: oracle-fault `spec` rate=R,seed=S[,kinds=a+b] forwarded to the spawned backends")
	benchPath := fs.String("bench", "BENCH_cluster.json", "selftest: write the perf record to `file` (empty to disable)")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	rec, finish := of.setupMetered(*seed)

	copts := cluster.Options{
		Replication:    *replication,
		VNodes:         *vnodes,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThreshold,
		HedgeDelay:     *hedgeDelay,
		HedgeMin:       *hedgeMin,
		HedgeMax:       *hedgeMax,
		RetryBudget:    *retryBudget,
		AttemptTimeout: *attemptTimeout,
		Seed:           *seed,
		Rec:            rec,
	}

	if *selftest {
		rep, err := drill.Route(context.Background(), drill.RouteSpec{
			Spawn:          drill.ServeProcess(*scale, *seed, drill.RouteAdapters+2, *faultSpec),
			Reference:      drill.ZooReference(eval.NewZoo(*seed, *scale)),
			Router:         copts,
			RequestTimeout: *reqTimeout,
			Seed:           *seed,
			Config:         map[string]string{"scale": fmt.Sprint(*scale), "faults": *faultSpec},
		})
		finishSelftest(rep, err, *benchPath, finish)
		return
	}

	copts.Backends = splitBackends(*backendList)
	if len(copts.Backends) == 0 {
		fmt.Fprintln(os.Stderr, "knowtrans: route needs -backends (or -selftest)")
		usage()
		os.Exit(2)
	}
	r, err := cluster.New(copts)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	srv := serve.NewServer(r, serve.Options{
		RequestTimeout: *reqTimeout,
		MaxInflight:    *maxInflight,
		Rec:            rec,
		Sampler:        of.sampler,
		Profiles:       of.trigger,
	})
	if *jobsDir != "" {
		jm := jobs.NewManager(r, jobs.ManagerOptions{
			CheckpointDir: *jobsDir,
			MaxActive:     *maxJobs,
			Rec:           rec,
		})
		jobs.NewAPI(jm).Register(srv)
	}
	err = serveWithDrain(*addr, srv, *drainTimeout, func(bound net.Addr) {
		fmt.Printf("knowtrans route on http://%s (%d backends, replication=%d, hedge=%s)\n",
			bound, len(copts.Backends), copts.Replication, hedgeDesc(*hedgeDelay))
		for _, b := range copts.Backends {
			fmt.Printf("  backend %s\n", b)
		}
	})
	if err != nil {
		fatal(err)
	}
	if err := finish(); err != nil {
		fatal(err)
	}
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

func hedgeDesc(d time.Duration) string {
	switch {
	case d < 0:
		return "off"
	case d == 0:
		return "p95-derived"
	default:
		return d.String()
	}
}
