package drill

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/serve"
)

// LoadItem is one request of a load run: the adapter key, the instance,
// and (optionally) the answer the direct Adapted.Predict path produced at
// the same seed — when non-empty, the generator asserts byte-identity.
type LoadItem struct {
	Key  string
	In   serve.WireInstance
	Want string
}

// LoadOptions configures RunLoad.
type LoadOptions struct {
	// Concurrency is the number of in-flight requests the generator keeps
	// open (at least one, at most one per item).
	Concurrency int
	// TraceSeed seeds the deterministic per-request trace IDs the generator
	// sends as `traceparent` headers (item i gets the i-th ID of the stream,
	// independent of worker scheduling). Zero seeds from the clock — IDs are
	// still sent, just not reproducible across runs.
	TraceSeed int64
	// AtCount/OnCount inject a mid-load event: OnCount fires exactly once,
	// as soon as AtCount requests have completed. The route drill uses it
	// to kill a backend while the remaining requests are in flight.
	AtCount int
	OnCount func()
}

// LoadReport summarizes one load run. Latencies are per-request
// microseconds over the full HTTP round trip.
type LoadReport struct {
	Requests    int `json:"requests"`
	Non2xx      int `json:"non_2xx"`
	Mismatches  int `json:"mismatches"`
	ColdHits    int `json:"cold_hits"`
	Concurrency int `json:"concurrency"`
	// TraceEchoMisses counts 2xx responses whose traceparent echo did not
	// carry the trace ID the generator sent — i.e. propagation broke.
	TraceEchoMisses int `json:"trace_echo_misses"`
	// EnvelopeMisses counts non-2xx bodies that were NOT the versioned
	// error envelope — any value above zero is an API-shape regression.
	EnvelopeMisses int `json:"envelope_misses,omitempty"`
	// SampleTrace is the trace ID of the slowest request of the run: the
	// one to pull first with `knowtrans obs trace -trace-id`.
	SampleTrace string  `json:"sample_trace,omitempty"`
	WallS       float64 `json:"wall_s"`
	RPS         float64 `json:"throughput_rps"`
	P50us       float64 `json:"p50_us"`
	P95us       float64 `json:"p95_us"`
	P99us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`

	// FirstError keeps the first failure verbatim for diagnostics.
	FirstError string `json:"first_error,omitempty"`
}

// RunLoad drives items against a running server at baseURL with a fixed
// pool of workers, so up to Concurrency predicts are in flight at once. It
// never aborts on a failed request — failures are counted (Non2xx,
// Mismatches) and the first one is kept verbatim — so a chaos-mode run
// reports degradation instead of dying on it.
func RunLoad(ctx context.Context, baseURL string, items []LoadItem, opts LoadOptions) (*LoadReport, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("drill: load run needs items")
	}
	// A cold adapter pays for a full Transfer on its first predict.
	client := &http.Client{Timeout: 120 * time.Second}
	workers := min(max(opts.Concurrency, 1), len(items))
	seed := opts.TraceSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	ids := obs.NewIDSource(seed)
	traceFor := func(i int) obs.SpanContext {
		return obs.SpanContext{Trace: ids.At(uint64(i + 1)), Span: ids.SpanIDAt(uint64(i + 1))}
	}

	var (
		next       atomic.Int64
		completed  atomic.Int64
		non2xx     atomic.Int64
		mismatches atomic.Int64
		cold       atomic.Int64
		echoMiss   atomic.Int64

		envMiss atomic.Int64

		mu       sync.Mutex
		latUs    = make([]int64, len(items))
		firstErr string
	)
	fail := func(msg string) {
		mu.Lock()
		if firstErr == "" {
			firstErr = msg
		}
		mu.Unlock()
	}

	doItem := func(i int) {
		it := items[i]
		body, _ := json.Marshal(serve.PredictRequest{Adapter: it.Key, Instance: it.In})
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/predict", bytes.NewReader(body))
		if err != nil {
			non2xx.Add(1)
			fail(fmt.Sprintf("build request %d: %v", i, err))
			return
		}
		req.Header.Set("Content-Type", "application/json")
		sent := traceFor(i)
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(sent))
		resp, err := client.Do(req)
		latUs[i] = time.Since(t0).Microseconds()
		if err != nil {
			non2xx.Add(1)
			fail(fmt.Sprintf("request %d (%s): %v", i, it.Key, err))
			return
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			non2xx.Add(1)
			if eb, ok := serve.ParseErrorEnvelope(payload); ok {
				fail(fmt.Sprintf("request %d (%s): HTTP %d [%s, retryable=%v]: %s",
					i, it.Key, resp.StatusCode, eb.Code, eb.Retryable, eb.Message))
			} else {
				envMiss.Add(1)
				fail(fmt.Sprintf("request %d (%s): HTTP %d (not the error envelope): %s",
					i, it.Key, resp.StatusCode, bytes.TrimSpace(payload)))
			}
			return
		}
		if echo, perr := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); perr != nil || echo.Trace != sent.Trace {
			echoMiss.Add(1)
			fail(fmt.Sprintf("request %d (%s): traceparent not echoed (sent trace %s, got %q)",
				i, it.Key, sent.Trace, resp.Header.Get(obs.TraceparentHeader)))
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(payload, &pr); err != nil {
			non2xx.Add(1)
			fail(fmt.Sprintf("request %d (%s): bad response body: %v", i, it.Key, err))
			return
		}
		if pr.Cold {
			cold.Add(1)
		}
		if it.Want != "" && pr.Answer != it.Want {
			mismatches.Add(1)
			fail(fmt.Sprintf("request %d (%s): served %q, direct path produced %q", i, it.Key, pr.Answer, it.Want))
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || ctx.Err() != nil {
					return
				}
				doItem(i)
				if n := completed.Add(1); opts.OnCount != nil && int(n) == opts.AtCount {
					opts.OnCount()
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	slowest := 0
	for i, l := range latUs {
		if l > latUs[slowest] {
			slowest = i
		}
	}
	sorted := append([]int64(nil), latUs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &LoadReport{
		Requests:        len(items),
		Non2xx:          int(non2xx.Load()),
		Mismatches:      int(mismatches.Load()),
		ColdHits:        int(cold.Load()),
		Concurrency:     workers,
		TraceEchoMisses: int(echoMiss.Load()),
		EnvelopeMisses:  int(envMiss.Load()),
		SampleTrace:     traceFor(slowest).Trace.String(),
		WallS:           wall.Seconds(),
		RPS:             float64(len(items)) / wall.Seconds(),
		P50us:           analyze.Quantile(sorted, 0.50),
		P95us:           analyze.Quantile(sorted, 0.95),
		P99us:           analyze.Quantile(sorted, 0.99),
		MaxUs:           float64(sorted[len(sorted)-1]),
		FirstError:      firstErr,
	}, nil
}
