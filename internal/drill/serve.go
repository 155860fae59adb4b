package drill

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/profile"
	"repro/internal/serve"
)

// ServeSpec is the serve drill: a seeded concurrent load through one
// server's full HTTP path, across several adapters.
type ServeSpec struct {
	Handler   http.Handler    // the server under test
	Registry  *serve.Registry // its registry: warm-up and per-key evidence
	Metrics   *obs.Registry   // its metrics: batching evidence
	Reference Reference

	Requests    int
	Concurrency int
	Adapters    int
	// Warm builds every adapter before the timed load, so throughput and
	// bytes/op measure serving cost rather than cold starts.
	Warm bool
	// Faulted says oracle faults are armed: availability (non_2xx) becomes
	// context. Answers must still match the equally faulted reference.
	Faulted bool
	Seed    int64
	Config  map[string]string
}

// Serve runs the serve drill. Its invariants: every request answered
// byte-identically to the direct path, no non-2xx when no faults are
// armed, every client traceparent echoed, each adapter's cold start
// coalesced to exactly one Transfer, and every drained batch answered by
// the batched forward.
func Serve(ctx context.Context, s ServeSpec) (*Report, error) {
	keys, err := pickKeys(s.Reference, s.Adapters)
	if err != nil {
		return nil, err
	}
	items, _, err := referenceLoad(ctx, s.Reference, keys, s.Requests, s.Seed)
	if err != nil {
		return nil, err
	}
	// Drop the reference zoo before the timed load, so its models are
	// collectable and the run's heap timeline measures the server alone.
	s.Reference = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler}
	go hs.Serve(ln) //nolint:errcheck
	defer hs.Close()
	baseURL := "http://" + ln.Addr().String()
	logf("selftest: %d requests, %d concurrent, %d adapters via %s", len(items), s.Concurrency, len(keys), baseURL)

	if s.Warm {
		logf("selftest: pre-warming %d adapters...", len(keys))
		for _, key := range keys {
			if _, err := s.Registry.Warm(ctx, key); err != nil {
				return nil, fmt.Errorf("drill: warm %s: %w", key, err)
			}
		}
	}

	// Resource accounting brackets the load run only: reference building
	// is excluded, so bytes/op reflects serving cost.
	before := profile.ReadStats()
	rep, err := RunLoad(ctx, baseURL, items, LoadOptions{Concurrency: s.Concurrency, TraceSeed: s.Seed})
	after := profile.ReadStats()
	if err != nil {
		return nil, fmt.Errorf("drill: load run: %w", err)
	}
	rd := after.Delta(before)
	ms := s.Metrics.Snapshot()
	batches := ms.Counters["serve.batches"]
	batched := ms.Counters["serve.batched_predicts"]
	bs := ms.Histograms["serve.batch_size"]

	r := newReport("serve", s.Config, "keys", strings.Join(keys, ","), "seed", fmt.Sprint(s.Seed),
		"warm", fmt.Sprint(s.Warm))
	r.WallS = rep.WallS
	note(r, "sample_trace", rep.SampleTrace)
	note(r, "first_error", rep.FirstError)

	r.Invariant("requests", float64(rep.Requests), float64(s.Requests), "count")
	r.Invariant("concurrency", float64(rep.Concurrency), float64(min(s.Concurrency, s.Requests)), "count")
	r.Invariant("mismatches", float64(rep.Mismatches), 0, "count")
	r.Invariant("trace_echo_misses", float64(rep.TraceEchoMisses), 0, "count")
	if s.Faulted {
		r.Context("non_2xx", float64(rep.Non2xx), "count")
	} else {
		r.Invariant("non_2xx", float64(rep.Non2xx), 0, "count")
	}
	single := 0
	for _, st := range s.Registry.Snapshot() {
		logf("selftest: adapter %-24s transfers=%d requests=%d hits=%d misses=%d",
			st.Key, st.Transfers, st.Requests, st.Hits, st.Misses)
		if st.Transfers == 1 {
			single++
		}
	}
	r.Invariant("keys_single_transfer", float64(single), float64(len(keys)), "keys")
	r.Invariant("unbatched_batches", float64(batches-batched), 0, "count")
	r.Context("batched_predicts", float64(batched), "count")

	r.Perf("throughput_rps", rep.RPS, "req/s", analyze.BetterHigher)
	r.Perf("p50_us", rep.P50us, "us", analyze.BetterLower)
	r.Perf("p95_us", rep.P95us, "us", analyze.BetterLower)
	r.Perf("p99_us", rep.P99us, "us", analyze.BetterLower)
	r.Perf("max_us", rep.MaxUs, "us", analyze.BetterLower)
	r.Perf("alloc_bytes_total", float64(rd.AllocBytes), "B", analyze.BetterLower)
	r.Perf("alloc_objects_total", float64(rd.AllocObjects), "objects", analyze.BetterLower)
	r.Perf("bytes_per_op", float64(rd.AllocBytes)/float64(rep.Requests), "B/op", analyze.BetterLower)
	r.Perf("allocs_per_op", float64(rd.AllocObjects)/float64(rep.Requests), "allocs/op", analyze.BetterLower)
	r.Perf("gc_cycles", float64(rd.GCCycles), "count", analyze.BetterLower)
	r.Perf("gc_pause_total_us", rd.GCPauseUS, "us", analyze.BetterLower)
	r.Perf("goroutines_end", float64(after.Goroutines), "count", analyze.BetterLower)
	r.Perf("heap_live_end_bytes", float64(after.HeapLiveBytes), "B", analyze.BetterLower)
	r.Perf("avg_batch_size", bs.Mean, "rows", analyze.BetterHigher)
	r.Context("batches", float64(batches), "count")
	r.Context("max_batch_size", bs.Max, "rows")
	r.Context("cold_hits", float64(rep.ColdHits), "count")
	r.Context("envelope_misses", float64(rep.EnvelopeMisses), "count")

	logf("selftest: %d requests in %.2fs — %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms",
		rep.Requests, rep.WallS, rep.RPS, rep.P50us/1e3, rep.P95us/1e3, rep.P99us/1e3)
	logf("selftest: %d non-2xx, %d mismatches, %d cold hits, %d trace-echo misses",
		rep.Non2xx, rep.Mismatches, rep.ColdHits, rep.TraceEchoMisses)
	logf("selftest: resources: %.0f B/op, %.1f allocs/op, %d gc cycles (%.1fms pause), %d goroutines, heap %.1fMB",
		float64(rd.AllocBytes)/float64(rep.Requests), float64(rd.AllocObjects)/float64(rep.Requests),
		rd.GCCycles, rd.GCPauseUS/1e3, after.Goroutines, float64(after.HeapLiveBytes)/(1<<20))
	logf("selftest: batching: %d batches (avg %.1f, max %.0f), %d batched predicts",
		batches, bs.Mean, bs.Max, batched)
	logf("selftest: slowest request trace %s (inspect: knowtrans obs trace FILE.jsonl -trace-id %s)",
		rep.SampleTrace, rep.SampleTrace)
	return r, nil
}
