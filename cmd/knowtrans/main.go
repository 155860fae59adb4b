// Command knowtrans is the experiment driver of the KnowTrans
// reproduction. It can run any paper experiment by id, train the upstream
// artifacts, or transfer the model to a single dataset and print the
// searched knowledge.
//
// Usage:
//
//	knowtrans experiment <id> [-scale 0.15] [-reps 3] [-seed 1] [-workers N]
//	knowtrans experiment all
//	knowtrans list
//	knowtrans transfer -dataset EM/Walmart-Amazon [-scale 0.15] [-seed 1]
//
// Experiment ids: table1 table2 table3 table4 table5 table6 table7 fig4
// fig5 fig6 fig7 (see DESIGN.md for the mapping to the paper).
//
// Every subcommand accepts the observability flags -trace FILE.jsonl,
// -metrics FILE.json, -pprof ADDR, and the profiling family -sample,
// -timeline, -cpuprofile, -memprofile, -profdir (see internal/obs,
// internal/obs/profile, and the "Observability" and "Profiling & resource
// accounting" sections of DESIGN.md). `knowtrans experiment` also writes
// a machine-readable BENCH_run.json run record (-bench to rename,
// -bench "" to disable) and accepts -faults to run the grid under seeded
// chaos injection on the oracle path (see internal/faults and the
// "Resilience & chaos testing" section of DESIGN.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/tasks"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range eval.FullRegistry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case "experiment":
		runExperiment(os.Args[2:])
	case "build":
		runBuild(os.Args[2:])
	case "transfer":
		runTransfer(os.Args[2:])
	case "serve":
		runServe(os.Args[2:])
	case "route":
		runRoute(os.Args[2:])
	case "job":
		runJob(os.Args[2:])
	case "obs":
		runObs(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "knowtrans: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  knowtrans list
  knowtrans experiment <id|all> [-scale S] [-reps N] [-seed K] [-workers W]
                       [-bench FILE.json] [-faults rate=R,seed=S[,kinds=a+b]] [obs flags]
  knowtrans build [-artifacts DIR] [-scale S] [-seed K] [obs flags]
  knowtrans transfer -dataset <task/name> [-artifacts DIR] [-scale S] [-seed K] [obs flags]
  knowtrans serve [-addr HOST:PORT] [-scale S] [-seed K] [-max-adapters N] [-max-batch N]
                  [-batch-wait D] [-timeout D] [-faults SPEC] [-access-log FILE|-]
                  [-slow D] [obs flags]
  knowtrans serve -selftest [-selftest-requests N] [-selftest-concurrency N]
                  [-selftest-adapters N] [-bench BENCH_serve.json]
  knowtrans route -backends URL,URL,... [-addr HOST:PORT] [-replication N]
                  [-probe-interval D] [-fail-threshold N] [-hedge-delay D]
                  [-retry-budget N] [-drain-timeout D] [obs flags]
  knowtrans route -selftest [-scale S] [-seed K] [-faults SPEC]
                  [-bench BENCH_cluster.json]
  knowtrans job [run|plan|resume] -spec FILE.{json,yaml} [-backends URL,URL]
                [-replication N] [-checkpoint DIR] [-dry-run] [-scale S]
                [-seed K] [-faults SPEC] [obs flags]
  knowtrans job -selftest [-scale S] [-seed K] [-faults SPEC]
                [-bench BENCH_jobs.json] [-workdir DIR]
  knowtrans obs trace FILE.jsonl [-top N] [-json] [-trace-id ID] [-follow]
  knowtrans obs top [-url URL] [-interval D] [-n N] [-once]
  knowtrans obs diff A.json B.json [-rel-tol F] [-strict] [-json]
  knowtrans obs prof TIMELINE.jsonl [-windows N] [-gate] [-diff BASELINE.jsonl] [-json]

observability flags (any subcommand):
  -trace FILE.jsonl   write a span trace (Transfer → SKC stages → AKB iterations)
  -metrics FILE.json  write counters/gauges/latency histograms at exit
  -pprof ADDR         serve net/http/pprof plus live /metrics (Prometheus
                      text) and /metrics.json on ADDR while the run executes
  -sample D           poll runtime/metrics every D into the registry and a
                      JSONL timeline for knowtrans obs prof
  -timeline FILE      where -sample writes the timeline (default: next to
                      the trace file, else runtime.jsonl)
  -cpuprofile FILE    whole-run CPU profile (pprof-labeled by route/key/
                      batch/phase/cell)
  -memprofile FILE    heap profile written at exit
  -profdir DIR        slow-request-triggered CPU/heap captures (serve)`)
}

// newFlagSet returns a flag set that reports parse errors to the caller
// instead of exiting behind its back (flag.ExitOnError made the error
// branches below unreachable and skipped the usage text).
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// parseOrExit parses args, printing the subcommand's defaults plus the
// global usage and exiting 2 on error.
func parseOrExit(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		usage()
		os.Exit(2)
	}
}

func runExperiment(args []string) {
	fs := newFlagSet("experiment")
	scale := fs.Float64("scale", 0.15, "dataset scale relative to paper sizes (0,1]")
	reps := fs.Int("reps", 1, "repetitions to average over (paper: 3)")
	seed := fs.Int64("seed", 1, "master random seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"experiment cell workers (1 = serial; results are identical at any count)")
	benchPath := fs.String("bench", "BENCH_run.json", "write a machine-readable run record to `file` (empty to disable)")
	faultSpec := fs.String("faults", "",
		"inject oracle faults, `spec` rate=R,seed=S[,kinds=a+b][,latency=D] (chaos testing; see internal/faults)")
	of := addObsFlags(fs)
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "knowtrans: experiment needs an id (or `all`)")
		usage()
		os.Exit(2)
	}
	id := args[0]
	parseOrExit(fs, args[1:])
	rec, finish, err := of.setup()
	if err != nil {
		fatal(err)
	}
	rec.SeedTraceIDs(*seed)
	z := newZoo(*seed, *scale, *faultSpec, rec)
	z.Workers = *workers

	bench := &BenchRun{}
	run := func(e eval.Experiment) {
		// Each experiment runs under one root span so `knowtrans obs trace`
		// can account every stage's self time against a single wall-time
		// denominator.
		expRec, expSpan := rec.StartSpan("experiment")
		expSpan.SetAttr("id", e.ID)
		expSpan.SetAttr("scale", *scale)
		expSpan.SetAttr("reps", *reps)
		z.Rec = expRec
		start := time.Now()
		t := e.Run(z, *reps)
		wall := time.Since(start)
		expSpan.End()
		z.Rec = rec
		expRec.Event("experiment.done", "id", e.ID, "wall_s", wall.Seconds())
		fmt.Println(t.Render())
		fmt.Printf("(%s in %.1fs, scale=%.2f, reps=%d, seed=%d)\n\n", e.ID, wall.Seconds(), *scale, *reps, *seed)
		bench.Experiments = append(bench.Experiments, benchRecord(t, wall, *scale, *reps, *seed))
	}
	if id == "all" {
		for _, e := range eval.Registry() {
			run(e)
		}
	} else {
		e, ok := eval.ExperimentByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "knowtrans: unknown experiment %q; try `knowtrans list`\n", id)
			os.Exit(2)
		}
		run(e)
	}
	if *benchPath != "" {
		if err := writeBenchRun(*benchPath, bench); err != nil {
			fatal(fmt.Errorf("write bench record: %w", err))
		}
		fmt.Printf("wrote %s (%d experiments)\n", *benchPath, len(bench.Experiments))
	}
	if err := finish(); err != nil {
		fatal(err)
	}
}

func runTransfer(args []string) {
	fs := newFlagSet("transfer")
	dataset := fs.String("dataset", "EM/Walmart-Amazon", "downstream dataset key (task/name)")
	artifacts := fs.String("artifacts", "", "artifact directory written by `knowtrans build` (optional)")
	scale := fs.Float64("scale", 0.15, "dataset scale")
	seed := fs.Int64("seed", 1, "random seed")
	of := addObsFlags(fs)
	parseOrExit(fs, args)
	rec, finish, err := of.setup()
	if err != nil {
		fatal(err)
	}
	rec.SeedTraceIDs(*seed)
	z := eval.NewZoo(*seed, *scale)
	z.Rec = rec
	b, ok := z.FindDownstream(*dataset)
	if !ok {
		fmt.Fprintf(os.Stderr, "knowtrans: unknown dataset %q; valid keys:\n  %s\n",
			*dataset, strings.Join(z.DownstreamKeys(), "\n  "))
		usage()
		os.Exit(2)
	}
	fewshot := b.DS.FewShot(rand.New(rand.NewSource(*seed)), eval.FewShotN)

	fmt.Printf("Transferring Jellyfish-7B to %s with %d labeled examples...\n", *dataset, len(fewshot))
	jelly := z.Method(eval.MethodJellyfish).Adapt(&baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: *seed})
	jellyScore := baselines.Evaluate(jelly, b.Kind, b.DS.Test)

	var pred baselines.Predictor
	if *artifacts != "" {
		upstream, snaps, err := loadArtifacts(*artifacts)
		if err != nil {
			fatal(err)
		}
		if upstream == nil {
			fatal(fmt.Errorf("no artifacts in %s; run `knowtrans build` first", *artifacts))
		}
		fmt.Printf("loaded upstream model + %d patches from %s\n", len(snaps), *artifacts)
		upstream.Rec = rec
		kt := core.NewKnowTrans(upstream, snaps,
			core.WithPlainOracle(oracle.New(*seed)),
			core.WithRecorder(rec),
		)
		ad, err := kt.Transfer(context.Background(), b.Kind, fewshot, *seed)
		if err != nil {
			fatal(err)
		}
		pred = ad.Detached()
	} else {
		kt := z.KnowTransMethod(eval.Size7B, true, true, lora.StrategyAdaptive)
		pred = kt.Adapt(&baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: *seed})
	}
	ktScore := baselines.Evaluate(pred, b.Kind, b.DS.Test)

	fmt.Printf("\n%-24s %6.2f\n%-24s %6.2f\n", "Jellyfish-7B (few-shot):", jellyScore, "KnowTrans-7B:", ktScore)
	if kc, ok := pred.(interface{ SearchedKnowledge() *tasks.Knowledge }); ok && kc.SearchedKnowledge() != nil {
		fmt.Printf("\nSearched knowledge:\n%s\n", tasks.RenderKnowledgeText(kc.SearchedKnowledge()))
	}
	if err := finish(); err != nil {
		fatal(err)
	}
}

// newZoo builds the zoo a command runs on, recording into rec and, given a
// fault spec, arming seeded chaos injection on the oracle path.
func newZoo(seed int64, scale float64, faultSpec string, rec *obs.Recorder) *eval.Zoo {
	z := eval.NewZoo(seed, scale)
	z.Rec = rec
	if faultSpec != "" {
		fcfg, err := faults.ParseSpec(faultSpec)
		if err != nil {
			fatal(err)
		}
		z.Faults = &fcfg
	}
	return z
}
