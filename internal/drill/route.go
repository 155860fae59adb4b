package drill

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/analyze"
	"repro/internal/serve"
)

// The route drill's fleet and load shape.
const (
	RouteBackends    = 3
	RouteRequests    = 256 // per load phase
	RouteConcurrency = 64
	RouteAdapters    = 4
)

// RouteSpec is the route drill: a fleet behind two router replicas, a
// healthy load phase through the hedging one, and a second phase through
// the failover one during which one backend is killed.
type RouteSpec struct {
	Spawn     Spawn
	Reference Reference
	// Router is the base router configuration; the drill sets Backends,
	// probe cadence and each replica's hedging mode.
	Router         cluster.Options
	RequestTimeout time.Duration
	Seed           int64
	Config         map[string]string
}

// Route runs the route drill. Its invariants: a client of the routed tier
// never sees a failure or a divergent answer, not even while a backend is
// killed under it; hedges and failovers both fire; both routers eject the
// dead backend; its keys are re-served by replicas with the same answers;
// and the survivors drain clean.
func Route(ctx context.Context, s RouteSpec) (*Report, error) {
	keys, err := pickKeys(s.Reference, RouteAdapters)
	if err != nil {
		return nil, err
	}
	items, probes, err := referenceLoad(ctx, s.Reference, keys, RouteRequests, s.Seed)
	if err != nil {
		return nil, err
	}
	s.Reference = nil // only the probes' instances outlive the load build
	logf("selftest: spawning %d backends...", RouteBackends)
	fl, err := startFleet(s.Spawn, RouteBackends)
	if err != nil {
		return nil, err
	}
	defer fl.close()

	// Two router replicas front the same fleet, one per load phase, each
	// pinning one fault mechanism so the drill can require hard evidence
	// of both. The hedging replica runs a fixed 2ms hedge delay: under
	// this load every request outlives it, so tail hedging provably fires.
	// The failover replica runs with hedging disabled: when the victim
	// dies, the only way its requests can still succeed is the
	// error-triggered failover branch — no timer race can mask it. (With
	// hedging on, the backup is already in flight before the primary's
	// connection error lands, so the failover counter never moves.)
	copts := s.Router
	copts.Backends = fl.urls()
	copts.ProbeInterval = 100 * time.Millisecond
	copts.ProbeTimeout = time.Second
	if copts.HedgeDelay == 0 {
		copts.HedgeDelay = 2 * time.Millisecond
	}
	fopts := copts
	fopts.HedgeDelay = -1
	rHedge, hedgeURL, closeHedge, err := frontRouter(copts, s.RequestTimeout)
	if err != nil {
		return nil, err
	}
	defer closeHedge()
	rFail, failURL, closeFail, err := frontRouter(fopts, s.RequestTimeout)
	if err != nil {
		return nil, err
	}
	defer closeFail()

	// Warm fans out to every owner, so replicas are hot before the first
	// hedge or failover needs them.
	logf("selftest: pre-warming %d keys across the fleet...", len(keys))
	for _, key := range keys {
		if _, err := rHedge.Warm(ctx, key); err != nil {
			return nil, fmt.Errorf("drill: warm %s: %w", key, err)
		}
	}

	logf("selftest: phase 1 — %d requests, %d concurrent, fleet healthy, hedge delay %s",
		len(items), RouteConcurrency, copts.HedgeDelay)
	p1, err := RunLoad(ctx, hedgeURL, items, LoadOptions{Concurrency: RouteConcurrency, TraceSeed: s.Seed})
	if err != nil {
		return nil, fmt.Errorf("drill: phase-1 load: %w", err)
	}

	// Phase 2: the same load through the failover router; once a quarter
	// of it has completed, kill the primary owner of the first key.
	victimURL := rFail.Owners(keys[0])[0]
	victim := fl.byURL(victimURL)
	killAt := len(items) / 4
	logf("selftest: phase 2 — same load, hedging off, kill %s after %d requests", victimURL, killAt)
	p2, err := RunLoad(ctx, failURL, items, LoadOptions{
		Concurrency: RouteConcurrency,
		TraceSeed:   s.Seed + 1,
		AtCount:     killAt,
		OnCount:     func() { fl.kill(victim) },
	})
	if err != nil {
		return nil, fmt.Errorf("drill: phase-2 load: %w", err)
	}

	// Both probe loops must notice the corpse (100ms probes, 2-strike
	// threshold: well under a second).
	ejected := false
	for end := time.Now().Add(10 * time.Second); !ejected && time.Now().Before(end); {
		ejected = isEjected(rHedge, victimURL) && isEjected(rFail, victimURL)
		if !ejected {
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Rebalance: every key the victim owned must now be served by its
	// replica — same answer, no error, straight through the router.
	rebalanced, rebalanceFailures := 0, 0
	for _, key := range keys {
		owned := false
		for _, u := range rFail.Owners(key) {
			owned = owned || u == victimURL
		}
		if !owned {
			continue
		}
		rebalanced++
		pr := probes[key]
		if ans, _, err := rFail.Predict(ctx, key, pr.in); err != nil || ans != pr.want {
			rebalanceFailures++
			logf("selftest: post-ejection predict %s = %q (err %v), want %q", key, ans, err, pr.want)
		}
	}

	live, clean := fl.drain()
	stHedge, stFail := rHedge.Stats(), rFail.Stats()

	r := newReport("route", s.Config, "keys", strings.Join(keys, ","), "seed", fmt.Sprint(s.Seed),
		"backends", fmt.Sprint(RouteBackends), "replication", fmt.Sprint(copts.Replication), "hedge_delay", copts.HedgeDelay.String())
	r.WallS = p1.WallS + p2.WallS
	note(r, "killed_backend", victimURL)
	note(r, "first_error", p1.FirstError)
	if p1.FirstError == "" {
		note(r, "first_error", p2.FirstError)
	}

	r.Invariant("requests", float64(p1.Requests+p2.Requests), 2*RouteRequests, "count")
	r.Invariant("non_2xx", float64(p1.Non2xx+p2.Non2xx), 0, "count")
	r.Invariant("mismatches", float64(p1.Mismatches+p2.Mismatches), 0, "count")
	r.Invariant("trace_echo_misses", float64(p1.TraceEchoMisses+p2.TraceEchoMisses), 0, "count")
	r.Invariant("hedges_fired", b2f(stHedge.Hedges > 0), 1, "bool")
	r.Invariant("failovers_fired", b2f(stFail.Failovers > 0), 1, "bool")
	r.Invariant("victim_ejected", b2f(ejected), 1, "bool")
	r.Invariant("rebalance_exercised", b2f(rebalanced > 0), 1, "bool")
	r.Invariant("rebalance_failures", float64(rebalanceFailures), 0, "count")
	r.Invariant("drained_clean", float64(clean), float64(live), "backends")

	r.Perf("healthy_p50_us", p1.P50us, "us", analyze.BetterLower)
	r.Perf("healthy_p95_us", p1.P95us, "us", analyze.BetterLower)
	r.Perf("healthy_p99_us", p1.P99us, "us", analyze.BetterLower)
	r.Perf("healthy_rps", p1.RPS, "req/s", analyze.BetterHigher)
	r.Perf("degraded_p50_us", p2.P50us, "us", analyze.BetterLower)
	r.Perf("degraded_p95_us", p2.P95us, "us", analyze.BetterLower)
	r.Perf("degraded_p99_us", p2.P99us, "us", analyze.BetterLower)
	r.Perf("degraded_rps", p2.RPS, "req/s", analyze.BetterHigher)

	hedgeRate := 0.0
	if stHedge.Requests > 0 {
		hedgeRate = float64(stHedge.Hedges) / float64(stHedge.Requests)
	}
	r.Context("hedges", float64(stHedge.Hedges), "count")
	r.Context("hedge_rate", hedgeRate, "ratio")
	r.Context("failovers", float64(stFail.Failovers), "count")
	r.Context("ejections", float64(stFail.Ejections), "count")
	r.Context("rejoins", float64(stFail.Rejoins), "count")
	r.Context("killed_at_request", float64(killAt), "count")
	r.Context("rebalanced_keys", float64(rebalanced), "keys")
	// Per-backend load sums both router replicas: the fleet served both
	// phases.
	for i, b := range stHedge.Backends {
		fb := stFail.Backends[i]
		r.Context(fmt.Sprintf("backend%d.requests", i), float64(b.Requests+fb.Requests), "count")
		r.Context(fmt.Sprintf("backend%d.failures", i), float64(b.Failures+fb.Failures), "count")
		r.Notes[fmt.Sprintf("backend%d", i)] = b.URL
		logf("selftest: backend %-28s requests=%d failures=%d healthy=%v",
			b.URL, b.Requests+fb.Requests, b.Failures+fb.Failures, b.Healthy && fb.Healthy)
	}

	logf("selftest: healthy:  %d requests, %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, %d non-2xx",
		p1.Requests, p1.RPS, p1.P50us/1e3, p1.P95us/1e3, p1.P99us/1e3, p1.Non2xx)
	logf("selftest: degraded: %d requests, %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, %d non-2xx",
		p2.Requests, p2.RPS, p2.P50us/1e3, p2.P95us/1e3, p2.P99us/1e3, p2.Non2xx)
	logf("selftest: chaos: %d hedges (%.1f%% of %d hedged-phase requests), %d failovers, %d ejections, rebalanced %d keys off %s, %d/%d survivors drained clean",
		stHedge.Hedges, hedgeRate*100, stHedge.Requests, stFail.Failovers, stFail.Ejections, rebalanced, victimURL, clean, live)
	return r, nil
}

// frontRouter starts a router and fronts it with the serve HTTP API on an
// ephemeral port.
func frontRouter(opts cluster.Options, timeout time.Duration) (*cluster.Router, string, func(), error) {
	r, err := cluster.New(opts)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: serve.NewServer(r, serve.Options{RequestTimeout: timeout, Rec: opts.Rec})}
	go hs.Serve(ln) //nolint:errcheck
	return r, "http://" + ln.Addr().String(), func() { hs.Close(); r.Close() }, nil
}

func isEjected(r *cluster.Router, url string) bool {
	st := r.Stats()
	if st.Ejections < 1 {
		return false
	}
	for _, b := range st.Backends {
		if b.URL == url && b.Healthy {
			return false
		}
	}
	return true
}
