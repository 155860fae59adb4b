package cluster

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

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// Options configures a Router. The zero value is unusable (no backends);
// every other unset field takes the default documented on it.
type Options struct {
	// Backends are the base URLs of the `knowtrans serve` fleet
	// ("http://10.0.0.7:8080"). Required.
	Backends []string
	// Replication is how many distinct backends own each key (primary +
	// replicas, default 2, clamped to len(Backends)). Replicas are the
	// hedging/failover targets and the takeover set when the primary dies.
	Replication int
	// WarmReplicas budgets how many owners one Warm call fans to, in
	// attempt order (healthy first): enough pre-warmed replicas to survive
	// a primary death without paying every owner's Transfer up front.
	// Default 2, clamped to Replication; negative warms every owner (the
	// old unbounded behavior).
	WarmReplicas int
	// VNodes is the virtual-node count per backend on the ring (default 64).
	VNodes int
	// ProbeInterval is the base period between /readyz probes per backend
	// (default 500ms); ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is how many consecutive probe failures eject a backend
	// (default 2). An ejected backend keeps being probed (with backoff) and
	// rejoins on its first success.
	FailThreshold int
	// HedgeDelay fixes the backup-request delay. Default 0: derive it per
	// request from the observed p95 router latency, clamped to
	// [HedgeMin, HedgeMax] (defaults 1ms, 1s). Negative disables hedging.
	HedgeDelay time.Duration
	HedgeMin   time.Duration
	HedgeMax   time.Duration
	// RetryBudget caps extra attempts (hedges + failovers) per request
	// beyond the first (default 2; <0 unlimited up to the owner set).
	// Together with Replication it bounds retry amplification during an
	// outage: one request costs at most 1+RetryBudget backend calls.
	RetryBudget int
	// AttemptTimeout bounds one backend HTTP call (default 60s).
	AttemptTimeout time.Duration
	// BreakerThreshold/BreakerCooldown trip and cool the per-backend
	// breaker (defaults 5 and 8 calls; threshold <0 disables).
	BreakerThreshold int
	BreakerCooldown  int
	// Seed drives probe jitter; same seed, same probe schedule.
	Seed int64
	// Rec threads observability through the router. Nil disables it.
	Rec *obs.Recorder
	// Client, when non-nil, overrides the backend HTTP client (tests).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if len(o.Backends) > 0 && o.Replication > len(o.Backends) {
		o.Replication = len(o.Backends)
	}
	if o.WarmReplicas == 0 {
		o.WarmReplicas = 2
	}
	if o.WarmReplicas > o.Replication {
		o.WarmReplicas = o.Replication
	}
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = time.Millisecond
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = time.Second
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 2
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 60 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 8
	}
	return o
}

// backendState is everything the router tracks per backend: membership
// (healthy flag driven by the probe loop), a circuit breaker fed by real
// request outcomes, and counters for the per-backend QPS/gauge surface.
type backendState struct {
	url     string
	breaker *resilience.Breaker

	healthy    atomic.Bool
	probeFails int // owned by the probe loop goroutine

	requests  atomic.Int64
	failures  atomic.Int64
	inflight  atomic.Int64
	resident  atomic.Int64 // last /readyz resident reading
	ejections atomic.Int64
}

// Router consistent-hashes adapter keys onto the backend fleet and speaks
// the serve HTTP API to the owners, with hedging and failover. It
// implements serve.Resolver, so serve.NewServer(router, opts) exposes the
// exact same endpoints a single backend does.
type Router struct {
	opts   Options
	rec    *obs.Recorder
	ring   *Ring
	byURL  map[string]*backendState
	order  []*backendState
	client *http.Client
	stopc  chan struct{}
	wg     sync.WaitGroup

	lat latWindow

	hedges    atomic.Int64
	failovers atomic.Int64
	ejections atomic.Int64
	rejoins   atomic.Int64
	requests  atomic.Int64
}

var _ serve.Resolver = (*Router)(nil)
var _ serve.ReadyChecker = (*Router)(nil)

// New builds a router over opts.Backends and starts one health-probe loop
// per backend. Backends start optimistically healthy (requests fail over
// on contact anyway); the first probe round corrects the picture within
// ProbeInterval. Call Close to stop probing.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	seen := map[string]bool{}
	for _, u := range opts.Backends {
		if u == "" || seen[u] {
			return nil, fmt.Errorf("cluster: empty or duplicate backend %q", u)
		}
		seen[u] = true
	}
	r := &Router{
		opts:   opts,
		rec:    opts.Rec,
		ring:   NewRing(opts.Backends, opts.VNodes),
		byURL:  make(map[string]*backendState, len(opts.Backends)),
		client: opts.Client,
		stopc:  make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: opts.AttemptTimeout}
	}
	for _, u := range opts.Backends {
		b := &backendState{url: u}
		u := u
		b.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: opts.BreakerThreshold,
			Cooldown:  opts.BreakerCooldown,
			OnState: func(s resilience.State) {
				r.rec.SetGauge("cluster.breaker_state/"+u, float64(s))
			},
			OnTrip: func() { r.rec.Count("cluster.breaker_trips", 1) },
		})
		b.healthy.Store(true)
		r.rec.SetGauge("cluster.backend_healthy/"+u, 1)
		r.byURL[u] = b
		r.order = append(r.order, b)
	}
	// Probe loops start only once r.order is complete: every probe walks
	// it to recount the healthy backends.
	for i, b := range r.order {
		r.wg.Add(1)
		go r.probeLoop(b, opts.Seed+int64(i))
	}
	r.rec.SetGauge("cluster.backends", float64(len(r.order)))
	r.rec.SetGauge("cluster.backends_healthy", float64(len(r.order)))
	return r, nil
}

// Close stops the probe loops. In-flight requests finish normally.
func (r *Router) Close() {
	close(r.stopc)
	r.wg.Wait()
}

// Ready implements serve.ReadyChecker: the router is ready while at least
// one backend is healthy.
func (r *Router) Ready() error {
	for _, b := range r.order {
		if b.healthy.Load() {
			return nil
		}
	}
	return fmt.Errorf("cluster: no healthy backends (%d total)", len(r.order))
}

// Owners returns key's owner set in ring order (primary first), health
// ignored — the static placement.
func (r *Router) Owners(key string) []string {
	return r.ring.Owners(key, r.opts.Replication)
}

// candidates returns key's owners in attempt order: healthy backends whose
// breaker isn't open first (ring order preserved), then the rest as last
// resorts — when every owner looks down, trying one beats failing without
// trying, and a success heals the breaker.
func (r *Router) candidates(key string) []*backendState {
	owners := r.ring.Owners(key, r.opts.Replication)
	var live, rest []*backendState
	for _, u := range owners {
		b := r.byURL[u]
		if b.healthy.Load() && b.breaker.State() != resilience.StateOpen {
			live = append(live, b)
		} else {
			rest = append(rest, b)
		}
	}
	return append(live, rest...)
}

// predictResult is one backend's answer.
type predictResult struct {
	answer string
	cold   bool
}

// Predict implements serve.Resolver over the owner set: attempt the first
// candidate, hedge to the next after the p95-derived delay, fail over on
// transient errors, first success wins, losers are cancelled. Terminal
// errors (unknown key, bad key) abort immediately — every replica would
// say the same thing.
func (r *Router) Predict(ctx context.Context, key string, in *data.Instance) (string, bool, error) {
	if err := serve.ValidateKey(key); err != nil {
		return "", false, err
	}
	cands := r.candidates(key)
	if len(cands) == 0 {
		return "", false, fmt.Errorf("cluster: no backends own %q", key)
	}
	n := len(cands)
	if r.opts.RetryBudget >= 0 && n > 1+r.opts.RetryBudget {
		n = 1 + r.opts.RetryBudget
	}
	delay := r.hedgeDelay()
	r.requests.Add(1)
	r.rec.Count("cluster.requests", 1)
	start := time.Now()
	res, out, err := resilience.Hedge(ctx, n, resilience.HedgeOptions{Delay: delay},
		func(actx context.Context, i int) (predictResult, error) {
			return r.predictOn(actx, cands[i], key, in)
		})
	r.lat.add(float64(time.Since(start).Microseconds()))
	if out.Hedges > 0 {
		r.hedges.Add(int64(out.Hedges))
		r.rec.Count("cluster.hedges", int64(out.Hedges))
	}
	if out.Failovers > 0 {
		r.failovers.Add(int64(out.Failovers))
		r.rec.Count("cluster.failovers", int64(out.Failovers))
	}
	if err != nil {
		r.rec.Count("cluster.request_errors", 1)
		return "", false, err
	}
	if out.Winner > 0 {
		r.rec.Count("cluster.secondary_wins", 1)
	}
	return res.answer, res.cold, nil
}

// predictOn runs one attempt against one backend. Every attempt gets a
// cluster.attempt child span of the caller's request span and forwards its
// traceparent, so a hedged request renders as one trace with both
// attempts. Cancellation of a losing attempt is not held against the
// backend's breaker — only real outcomes are.
func (r *Router) predictOn(ctx context.Context, b *backendState, key string, in *data.Instance) (predictResult, error) {
	var zero predictResult
	if err := b.breaker.Allow(); err != nil {
		r.rec.Count("cluster.breaker_rejected", 1)
		return zero, fmt.Errorf("cluster: backend %s: %w", b.url, err)
	}
	var span *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		span = parent.StartChild("cluster.attempt")
		span.SetAttr("backend", b.url)
		span.SetAttr("key", key)
		defer span.End()
	}

	body, err := json.Marshal(serve.PredictRequest{Adapter: key, Instance: serve.WireFrom(in)})
	if err != nil {
		return zero, resilience.Terminal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return zero, resilience.Terminal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if span != nil {
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(span.Context()))
	}

	b.requests.Add(1)
	r.rec.Count("cluster.backend_requests/"+b.url, 1)
	r.rec.SetGauge("cluster.backend_inflight/"+b.url, float64(b.inflight.Add(1)))
	t0 := time.Now()
	resp, err := r.client.Do(req)
	r.rec.SetGauge("cluster.backend_inflight/"+b.url, float64(b.inflight.Add(-1)))
	r.rec.Observe("cluster.attempt_us", float64(time.Since(t0).Microseconds()), nil)
	if err != nil {
		if ctx.Err() != nil {
			// Our own cancellation (hedge loser or caller gone): no verdict
			// on the backend.
			return zero, ctx.Err()
		}
		r.noteFailure(b, span)
		return zero, fmt.Errorf("cluster: backend %s: %w", b.url, err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if span != nil {
		span.SetAttr("status", resp.StatusCode)
	}

	switch {
	case resp.StatusCode/100 == 2:
		b.breaker.Success()
		var pr serve.PredictResponse
		if err := json.Unmarshal(payload, &pr); err != nil {
			r.noteFailure(b, span)
			return zero, fmt.Errorf("cluster: backend %s: bad response body: %w", b.url, err)
		}
		return predictResult{answer: pr.Answer, cold: pr.Cold}, nil
	case resp.StatusCode == http.StatusNotFound:
		// The backend is fine; the key is unknown everywhere. Terminal.
		b.breaker.Success()
		return zero, resilience.Terminal(fmt.Errorf("%w: backend %s: %s", serve.ErrUnknownKey, b.url, trimBody(payload)))
	case resp.StatusCode == http.StatusTooManyRequests:
		// Shed load: the backend is alive but saturated. Retryable on a
		// replica; counts against the breaker so a saturated backend sheds
		// router traffic too.
		r.noteFailure(b, span)
		return zero, fmt.Errorf("%w: backend %s: %s", serve.ErrOverloaded, b.url, trimBody(payload))
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Draining for restart: retry on a replica.
		r.noteFailure(b, span)
		return zero, fmt.Errorf("%w: backend %s: %s", serve.ErrDraining, b.url, trimBody(payload))
	case resp.StatusCode/100 == 4:
		// Other 4xx (bad key, malformed body): the request is at fault, no
		// replica will disagree. Terminal.
		b.breaker.Success()
		err := fmt.Errorf("cluster: backend %s: HTTP %d: %s", b.url, resp.StatusCode, trimBody(payload))
		if resp.StatusCode == http.StatusBadRequest {
			err = fmt.Errorf("%w: backend %s: %s", serve.ErrBadKey, b.url, trimBody(payload))
		}
		return zero, resilience.Terminal(err)
	default:
		// 5xx: backend trouble. Retryable on a replica.
		r.noteFailure(b, span)
		return zero, fmt.Errorf("cluster: backend %s: HTTP %d: %s", b.url, resp.StatusCode, trimBody(payload))
	}
}

func (r *Router) noteFailure(b *backendState, span *obs.Span) {
	b.breaker.Failure()
	b.failures.Add(1)
	r.rec.Count("cluster.backend_failures/"+b.url, 1)
	if span != nil {
		span.SetAttr("error", true)
	}
}

// trimBody compacts an error payload for wrapping into an error message.
func trimBody(payload []byte) string {
	s := string(bytes.TrimSpace(payload))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// Warm implements serve.Resolver by fanning the warm out to the key's
// owners under the WarmReplicas budget — replicas must be warm too, or the
// first hedge/failover after a primary death pays a cold start at the
// worst possible moment, but warming *every* owner of a wide replication
// factor just multiplies Transfer cost for owners that may never be
// contacted. Candidates are attempt-ordered (healthy first), so the budget
// lands on the backends that will actually field the traffic. Cold is
// reported if any warmed owner was cold; the first error is returned only
// when no owner succeeded.
func (r *Router) Warm(ctx context.Context, key string) (bool, error) {
	if err := serve.ValidateKey(key); err != nil {
		return false, err
	}
	cands := r.candidates(key)
	if len(cands) == 0 {
		return false, fmt.Errorf("cluster: no backends own %q", key)
	}
	if budget := r.opts.WarmReplicas; budget > 0 && budget < len(cands) {
		cands = cands[:budget]
	}
	var cold bool
	var firstErr error
	ok := 0
	for _, b := range cands {
		c, err := r.warmOn(ctx, b, key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok++
		cold = cold || c
	}
	if ok == 0 {
		return false, firstErr
	}
	return cold, nil
}

func (r *Router) warmOn(ctx context.Context, b *backendState, key string) (bool, error) {
	body, _ := json.Marshal(serve.WarmRequest{Key: key})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/adapters", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	b.requests.Add(1)
	resp, err := r.client.Do(req)
	if err != nil {
		r.noteFailure(b, nil)
		return false, fmt.Errorf("cluster: backend %s: %w", b.url, err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode/100 == 5 {
			r.noteFailure(b, nil)
		} else {
			b.breaker.Success()
		}
		err := fmt.Errorf("cluster: backend %s: HTTP %d: %s", b.url, resp.StatusCode, trimBody(payload))
		if resp.StatusCode == http.StatusNotFound {
			err = fmt.Errorf("%w: backend %s", serve.ErrUnknownKey, b.url)
		}
		return false, err
	}
	b.breaker.Success()
	var wr serve.WarmResponse
	if err := json.Unmarshal(payload, &wr); err != nil {
		return false, fmt.Errorf("cluster: backend %s: bad response body: %w", b.url, err)
	}
	return wr.Cold, nil
}

var _ serve.Evicter = (*Router)(nil)

// Evict implements serve.Evicter by fanning DELETE /v1/adapters/{key} to
// every owner (no budget here: a partial eviction would leave stale
// replicas serving a key an operator asked to drop). Evicted is true if
// any owner dropped a resident adapter; ErrUnknownKey only when every
// reachable owner reported the key unseen.
func (r *Router) Evict(ctx context.Context, key string) (bool, error) {
	if err := serve.ValidateKey(key); err != nil {
		return false, err
	}
	cands := r.candidates(key)
	if len(cands) == 0 {
		return false, fmt.Errorf("cluster: no backends own %q", key)
	}
	var (
		evicted  bool
		ok       int
		unknown  int
		firstErr error
	)
	for _, b := range cands {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, b.url+"/v1/adapters/"+key, nil)
		if err != nil {
			return false, err
		}
		b.requests.Add(1)
		resp, err := r.client.Do(req)
		if err != nil {
			r.noteFailure(b, nil)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: backend %s: %w", b.url, err)
			}
			continue
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode/100 == 2:
			b.breaker.Success()
			var er serve.EvictResponse
			if err := json.Unmarshal(payload, &er); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: backend %s: bad response body: %w", b.url, err)
				}
				continue
			}
			ok++
			evicted = evicted || er.Evicted
		case resp.StatusCode == http.StatusNotFound:
			b.breaker.Success()
			unknown++
		default:
			if resp.StatusCode/100 == 5 {
				r.noteFailure(b, nil)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: backend %s: HTTP %d: %s", b.url, resp.StatusCode, trimBody(payload))
			}
		}
	}
	if ok == 0 {
		if unknown > 0 && firstErr == nil {
			return false, fmt.Errorf("%w: no owner has state for %q", serve.ErrUnknownKey, key)
		}
		return false, firstErr
	}
	return evicted, nil
}

// Snapshot implements serve.Resolver: the union of every healthy backend's
// snapshot, counters summed per key (a key resident on two replicas counts
// both backends' traffic).
func (r *Router) Snapshot() []serve.KeyStats {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
	defer cancel()
	merged := map[string]*serve.KeyStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range r.order {
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/adapters", nil)
			if err != nil {
				return
			}
			resp, err := r.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var ar serve.AdaptersResponse
			if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for _, st := range ar.Adapters {
				m, ok := merged[st.Key]
				if !ok {
					c := st
					merged[st.Key] = &c
					continue
				}
				m.Resident = m.Resident || st.Resident
				m.Loading = m.Loading || st.Loading
				m.Transfers += st.Transfers
				m.Requests += st.Requests
				m.Hits += st.Hits
				m.Misses += st.Misses
				m.Errors += st.Errors
			}
		}(b)
	}
	wg.Wait()
	out := make([]serve.KeyStats, 0, len(merged))
	for _, st := range merged {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Resident implements serve.Resolver: the fleet-wide resident count, from
// each backend's last /readyz probe reading (cheap, no fan-out).
func (r *Router) Resident() int {
	total := 0
	for _, b := range r.order {
		if b.healthy.Load() {
			total += int(b.resident.Load())
		}
	}
	return total
}

// BackendStat is one backend's live view in Stats.
type BackendStat struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Requests int64  `json:"requests"`
	Failures int64  `json:"failures"`
	Resident int64  `json:"resident"`
	Breaker  string `json:"breaker"`
}

// RouterStats is the router's own counters — the selftest's evidence that
// hedging and failover actually happened.
type RouterStats struct {
	Requests  int64         `json:"requests"`
	Hedges    int64         `json:"hedges"`
	Failovers int64         `json:"failovers"`
	Ejections int64         `json:"ejections"`
	Rejoins   int64         `json:"rejoins"`
	Backends  []BackendStat `json:"backends"`
}

// Stats returns a snapshot of the router's counters and per-backend state.
func (r *Router) Stats() RouterStats {
	s := RouterStats{
		Requests:  r.requests.Load(),
		Hedges:    r.hedges.Load(),
		Failovers: r.failovers.Load(),
		Ejections: r.ejections.Load(),
		Rejoins:   r.rejoins.Load(),
	}
	for _, b := range r.order {
		s.Backends = append(s.Backends, BackendStat{
			URL:      b.url,
			Healthy:  b.healthy.Load(),
			Requests: b.requests.Load(),
			Failures: b.failures.Load(),
			Resident: b.resident.Load(),
			Breaker:  b.breaker.State().String(),
		})
	}
	return s
}

// latWindow is a fixed-size ring of recent request latencies with a
// cached p95, recomputed every refreshEvery inserts — cheap enough for the
// hot path, fresh enough to track load shifts.
type latWindow struct {
	mu     sync.Mutex
	buf    [512]float64
	n      int // total inserts
	cached float64
}

const latRefreshEvery = 32

// add records one latency (µs) and occasionally recomputes the p95.
func (w *latWindow) add(us float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.n%len(w.buf)] = us
	w.n++
	if w.n%latRefreshEvery == 0 {
		w.cached = w.percentileLocked(0.95)
	}
}

// p95 returns the cached p95 in µs, or 0 while the window is too empty to
// trust (fewer than 2×refresh samples).
func (w *latWindow) p95() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 2*latRefreshEvery {
		return 0
	}
	return w.cached
}

func (w *latWindow) percentileLocked(p float64) float64 {
	n := w.n
	if n > len(w.buf) {
		n = len(w.buf)
	}
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), w.buf[:n]...)
	sort.Float64s(sorted)
	return sorted[int(p*float64(n-1))]
}

// hedgeDelay is the backup-request delay for one predict: the fixed
// HedgeDelay if set, else the observed p95 clamped to [HedgeMin, HedgeMax]
// — and HedgeMax while the window is still warming up (hedge late rather
// than double traffic on a cold estimate).
func (r *Router) hedgeDelay() time.Duration {
	if r.opts.HedgeDelay != 0 {
		if r.opts.HedgeDelay < 0 {
			return 0 // hedging disabled; failover still works
		}
		return r.opts.HedgeDelay
	}
	p95 := r.lat.p95()
	if p95 <= 0 {
		return r.opts.HedgeMax
	}
	d := time.Duration(p95) * time.Microsecond
	if d < r.opts.HedgeMin {
		d = r.opts.HedgeMin
	}
	if d > r.opts.HedgeMax {
		d = r.opts.HedgeMax
	}
	r.rec.SetGauge("cluster.hedge_delay_us", float64(d.Microseconds()))
	return d
}
