package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	rtpprof "runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// obsFlags are the observability options shared by every subcommand:
//
//	-trace FILE.jsonl   span trace of the run (Transfer → SKC → AKB tree)
//	-metrics FILE.json  counters/gauges/histogram summaries at exit
//	-pprof ADDR         serve net/http/pprof, /metrics (Prometheus text
//	                    exposition, re-rendered on every scrape), and
//	                    /metrics.json on ADDR (dedicated mux; bind failure
//	                    is a startup error, shutdown is graceful at exit)
//	-sample D           poll runtime/metrics every D into the metrics
//	                    registry and a JSONL timeline (0 disables)
//	-timeline FILE      where -sample writes the timeline (default: next
//	                    to the trace file, else runtime.jsonl)
//	-cpuprofile FILE    whole-run CPU profile
//	-memprofile FILE    heap profile written at exit
//	-profdir DIR        slow-request-triggered CPU/heap captures (serve)
//
// With none set, the pipeline runs through a nil recorder at zero cost.
type obsFlags struct {
	trace      string
	metrics    string
	pprof      string
	sample     time.Duration
	timeline   string
	cpuprofile string
	memprofile string
	profdir    string

	// sampler / trigger are populated by setup for subcommands that thread
	// them further (serve wires both into its Options).
	sampler *profile.Sampler
	trigger *profile.Trigger
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.trace, "trace", "", "write a JSONL span trace to `file`")
	fs.StringVar(&o.metrics, "metrics", "", "write a metrics JSON snapshot to `file` at exit")
	fs.StringVar(&o.pprof, "pprof", "", "serve pprof + live /metrics on `addr` (e.g. localhost:6060)")
	fs.DurationVar(&o.sample, "sample", 0, "poll runtime/metrics every `interval` into the registry and a JSONL timeline (0 disables)")
	fs.StringVar(&o.timeline, "timeline", "", "runtime timeline `file` for -sample (default: TRACE.runtime.jsonl, else runtime.jsonl)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a whole-run CPU profile to `file`")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to `file` at exit")
	fs.StringVar(&o.profdir, "profdir", "", "write slow-request-triggered CPU/heap captures under `dir`")
	return o
}

// obsCleanup is the registered finish func of the active obsFlags setup;
// fatal() runs it so an aborting run still flushes its trace and metrics
// to disk (the analyzer tolerates the truncated tail a hard kill leaves,
// but an error exit shouldn't need that tolerance).
var (
	obsCleanupMu sync.Mutex
	obsCleanup   func() error
)

func runObsCleanup() {
	obsCleanupMu.Lock()
	f := obsCleanup
	obsCleanup = nil
	obsCleanupMu.Unlock()
	if f == nil {
		return
	}
	if err := f(); err != nil {
		fmt.Fprintf(os.Stderr, "knowtrans: observability shutdown: %v\n", err)
	}
}

// timelinePath resolves where the -sample timeline goes: an explicit
// -timeline wins, otherwise it lands next to the trace file, otherwise
// runtime.jsonl in the working directory.
func (o *obsFlags) timelinePath() string {
	if o.timeline != "" {
		return o.timeline
	}
	if o.trace != "" {
		return o.trace + ".runtime.jsonl"
	}
	return "runtime.jsonl"
}

// enabled reports whether any observability flag asked for anything.
func (o *obsFlags) enabled() bool {
	return o.trace != "" || o.metrics != "" || o.pprof != "" ||
		o.sample > 0 || o.cpuprofile != "" || o.memprofile != "" || o.profdir != ""
}

// setupMetered is setup for the serving commands, which always carry a
// metrics registry — the /metrics endpoint, the registry counters and the
// drills' batch evidence need one even when no obs flag asked for files —
// and seed their trace IDs, so a seeded run's client traces and server
// spans line up run over run.
func (o *obsFlags) setupMetered(seed int64) (*obs.Recorder, func() error) {
	rec, finish, err := o.setup()
	if err != nil {
		fatal(err)
	}
	if rec == nil || rec.Metrics == nil {
		var tracer *obs.Tracer
		if rec != nil {
			tracer = rec.Tracer
		}
		rec = obs.NewRecorder(obs.NewRegistry(), tracer)
	}
	rec.SeedTraceIDs(seed)
	return rec, finish
}

// setup builds the recorder the flags ask for. The returned finish func
// flushes and closes everything — sampler, profiles, metrics, tracer, and
// the pprof server — runs at most once (fatal() triggers it on the error
// path too), and must run before exit; it is safe to call when no flag
// was set.
func (o *obsFlags) setup() (*obs.Recorder, func() error, error) {
	if !o.enabled() {
		return nil, func() error { return nil }, nil
	}

	var tracer *obs.Tracer
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return nil, nil, fmt.Errorf("open trace file: %w", err)
		}
		tracer = obs.NewTracer(f)
	}
	// The registry exists whenever any observability is on: spans and
	// metrics come from the same instrumentation points, a trace-only run
	// still benefits from counters being cheap, and the live /metrics
	// endpoint needs something to render even when nothing is written at
	// exit.
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, tracer)

	// Whole-run CPU profile: started before anything interesting runs,
	// stopped in finish. Triggered captures tolerate the profiler being
	// owned for the whole run (they keep the heap half).
	var cpuFile *os.File
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, nil, fmt.Errorf("open cpu profile: %w", err)
		}
		if err := rtpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("start cpu profile: %w", err)
		}
		cpuFile = f
	}

	// Continuous runtime sampling: registry gauges plus the JSONL timeline
	// `knowtrans obs prof` consumes.
	var timelineFile *os.File
	if o.sample > 0 {
		f, err := os.Create(o.timelinePath())
		if err != nil {
			if cpuFile != nil {
				rtpprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, nil, fmt.Errorf("open runtime timeline: %w", err)
		}
		timelineFile = f
		o.sampler = profile.Start(profile.Config{Interval: o.sample, Rec: rec, W: f})
	}

	if o.profdir != "" {
		if err := os.MkdirAll(o.profdir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("create profile dir: %w", err)
		}
		o.trigger = &profile.Trigger{Dir: o.profdir, Rec: rec}
	}

	// The live telemetry endpoint gets its own mux — registering pprof on
	// the global default mux would leak handlers into every http.Handler
	// the process serves — and binds synchronously so a bad -pprof addr is
	// a startup error, not a lost stderr line after the run is underway.
	var pprofSrv *http.Server
	if o.pprof != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		// /metrics and /metrics.json snapshot the registry per scrape, so a
		// long `knowtrans experiment` run can be watched while it executes.
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", obs.PromContentType)
			if err := obs.WritePrometheus(w, reg.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		ln, err := net.Listen("tcp", o.pprof)
		if err != nil {
			o.sampler.Stop()
			if timelineFile != nil {
				timelineFile.Close()
			}
			if cpuFile != nil {
				rtpprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, nil, fmt.Errorf("bind pprof server: %w", err)
		}
		pprofSrv = &http.Server{Handler: mux}
		go func() {
			if err := pprofSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "knowtrans: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s: /debug/pprof/ /metrics /metrics.json\n", ln.Addr())
	}

	var once sync.Once
	finish := func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		once.Do(func() {
			// Order matters: stop the sampler first (its final sample is the
			// timeline's last row), then the profiles, then the snapshots the
			// sampler fed, then the tracer, then the live endpoint.
			o.sampler.Stop()
			keep(o.sampler.Err())
			if timelineFile != nil {
				keep(timelineFile.Close())
			}
			if cpuFile != nil {
				rtpprof.StopCPUProfile()
				keep(cpuFile.Close())
			}
			if o.memprofile != "" {
				f, err := os.Create(o.memprofile)
				if err != nil {
					keep(fmt.Errorf("open mem profile: %w", err))
				} else {
					keep(profile.WriteHeap(f))
					keep(f.Close())
				}
			}
			if o.metrics != "" {
				f, err := os.Create(o.metrics)
				if err != nil {
					keep(fmt.Errorf("open metrics file: %w", err))
				} else {
					keep(reg.WriteJSON(f))
					keep(f.Close())
				}
			}
			// Close flushes the JSONL tail and surfaces any write error the
			// tracer swallowed mid-run.
			keep(tracer.Close())
			if pprofSrv != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				keep(pprofSrv.Shutdown(ctx))
				cancel()
			}
		})
		return firstErr
	}
	obsCleanupMu.Lock()
	obsCleanup = finish
	obsCleanupMu.Unlock()
	return rec, finish, nil
}
