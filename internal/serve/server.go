package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// Server is the HTTP face of the service: a mux over a Resolver (the local
// Registry, or internal/cluster's Router) plus the live telemetry
// endpoints. Build one with NewServer and mount it anywhere an
// http.Handler goes (net/http, httptest, ...).
//
//	POST   /v1/predict        {"adapter": "EM/Walmart-Amazon", "instance": {...}}
//	POST   /v1/adapters       {"key": "EM/Walmart-Amazon"}   (warm: trigger a Transfer)
//	GET    /v1/adapters       resolver snapshot (per-key transfers/hits/misses)
//	GET    /v1/adapters/{key} single-key stats (404 envelope on unknown)
//	DELETE /v1/adapters/{key} explicit eviction (retires per-key gauges)
//	GET    /healthz           liveness: process up + build/occupancy context
//	GET    /readyz            readiness: accepting work (503 while draining/unready)
//	GET    /metrics           Prometheus text exposition (when a metrics registry is wired)
//	GET    /metrics.json      the same snapshot as JSON
//
// Every error body on this surface is the versioned JSON envelope
// (ErrorEnvelope); plain-text error responses do not exist here.
type Server struct {
	res      Resolver
	opts     Options
	rec      *obs.Recorder
	mux      *http.ServeMux
	start    time.Time
	revision string
	inflight atomic.Int64
	draining atomic.Bool
}

// NewServer wraps a resolver in the HTTP API. When fronting a local
// Registry, opts should be the options the registry was built with (the
// server applies RequestTimeout and reports the batching knobs on
// /healthz).
func NewServer(res Resolver, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		res:      res,
		opts:     opts,
		rec:      opts.Rec,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		revision: obs.Revision(),
	}
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/adapters", s.handleAdapters)
	s.mux.HandleFunc("/v1/adapters/", s.handleAdapterKey)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	if opts.Rec != nil && opts.Rec.Metrics != nil {
		reg := opts.Rec.Metrics
		s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", obs.PromContentType)
			if err := obs.WritePrometheus(w, reg.Snapshot()); err != nil {
				WriteErrorStatus(w, http.StatusInternalServerError, err.Error())
			}
		})
		s.mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteJSON(w); err != nil {
				WriteErrorStatus(w, http.StatusInternalServerError, err.Error())
			}
		})
	}
	return s
}

// HandleFunc mounts an extra route on the server's mux under the full
// instrumentation path (traceparent ingest/echo, request span, counters,
// access log, pprof route label) — the seam higher tiers (internal/jobs)
// use to extend the /v1 surface without serve importing them. route is
// the label used on spans and per-route counters.
func (s *Server) HandleFunc(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.instrument(route, w, r, func(sw *statusWriter, r *http.Request) { h(sw, r) })
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Resolver returns the resolver the server fronts.
func (s *Server) Resolver() Resolver { return s.res }

// StartDrain flips the server into draining: /readyz reports 503 so
// health-checked routers stop sending, and new predict/warm calls shed
// with 503 + Retry-After while requests already in flight finish. Pair it
// with http.Server.Shutdown for a zero-loss rolling restart.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.rec.SetGauge("serve.draining", 1)
		s.rec.Event("serve.drain")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// WireField / WireInstance are the JSON shape of a data.Instance on the
// predict endpoint. Gold is deliberately absent: the service answers
// questions, it does not score them.
type WireField struct {
	Entity string `json:"entity,omitempty"`
	Name   string `json:"name"`
	Value  string `json:"value"`
}

type WireInstance struct {
	ID         string            `json:"id,omitempty"`
	Fields     []WireField       `json:"fields"`
	Target     string            `json:"target,omitempty"`
	Candidates []string          `json:"candidates,omitempty"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// WireFrom converts a data.Instance to its JSON wire shape. The gold label
// is not carried: callers that know it (the selftest) keep it on their side
// of the wire.
func WireFrom(in *data.Instance) WireInstance {
	wi := WireInstance{
		ID:         in.ID,
		Target:     in.Target,
		Candidates: in.Candidates,
		Meta:       in.Meta,
	}
	for _, f := range in.Fields {
		wi.Fields = append(wi.Fields, WireField{Entity: f.Entity, Name: f.Name, Value: f.Value})
	}
	return wi
}

func (wi *WireInstance) instance() *data.Instance {
	in := &data.Instance{
		ID:         wi.ID,
		Target:     wi.Target,
		Candidates: wi.Candidates,
		Meta:       wi.Meta,
		Gold:       -1, // unknown; the service never sees labels
	}
	for _, f := range wi.Fields {
		in.Fields = append(in.Fields, data.Field{Entity: f.Entity, Name: f.Name, Value: f.Value})
	}
	return in
}

// PredictRequest is the body of POST /v1/predict.
type PredictRequest struct {
	Adapter  string       `json:"adapter"`
	Instance WireInstance `json:"instance"`
}

// PredictResponse is the body of a successful predict call. Cold reports
// that this request found the adapter non-resident and waited on a
// Transfer (its own or a coalesced one).
type PredictResponse struct {
	Adapter string `json:"adapter"`
	Answer  string `json:"answer"`
	Cold    bool   `json:"cold"`
}

// WarmRequest is the body of POST /v1/adapters.
type WarmRequest struct {
	Key string `json:"key"`
}

// WarmResponse reports the outcome of a warm call.
type WarmResponse struct {
	Key  string `json:"key"`
	Cold bool   `json:"cold"`
}

// EvictResponse is the body of DELETE /v1/adapters/{key}. Evicted is
// false when the key is known but nothing was resident to drop.
type EvictResponse struct {
	Key     string `json:"key"`
	Evicted bool   `json:"evicted"`
}

// AdaptersResponse is the body of GET /v1/adapters.
type AdaptersResponse struct {
	Resident int        `json:"resident"`
	Adapters []KeyStats `json:"adapters"`
}

// HealthResponse is the body of GET /healthz: liveness plus enough build
// and occupancy context to identify what is running ("which revision is
// this, how full is it") from one curl.
type HealthResponse struct {
	OK        bool    `json:"ok"`
	Draining  bool    `json:"draining,omitempty"`
	UptimeS   float64 `json:"uptime_s"`
	GoVersion string  `json:"go_version"`
	Revision  string  `json:"revision,omitempty"`
	Resident  int     `json:"resident"`
	MaxBatch  int     `json:"max_batch"`
	MaxWaitS  float64 `json:"max_wait_s"`
	MaxAdapt  int     `json:"max_adapters"`
	// Goroutines / HeapLiveBytes are fresh runtime readings taken at
	// request time; Sampler reports whether continuous sampling is on and
	// how many samples it has taken.
	Goroutines    int64                 `json:"goroutines"`
	HeapLiveBytes uint64                `json:"heap_live_bytes"`
	Sampler       profile.SamplerStatus `json:"sampler"`
}

// ReadyResponse is the body of GET /readyz. Resident rides along so a
// router's periodic probe doubles as a cheap occupancy reading.
type ReadyResponse struct {
	OK       bool   `json:"ok"`
	Draining bool   `json:"draining,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Resident int    `json:"resident"`
}

// requestCtx applies the server's per-request deadline on top of the
// client's context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return r.Context(), func() {}
}

// statusFor maps a resolver/transfer error to an HTTP status: malformed
// keys are a 400 (no resolver anywhere can serve them), unknown keys a
// 404, shed load a 429, a draining server a 503, deadlines are 504, a
// client that went away is 499 (nginx's convention; net/http has no name
// for it), everything else is a 502 from the adaptation backend.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadKey):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownKey):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusBadGateway
	}
}

// instrument wraps one handler in the full request-scoped observability
// path: it ingests the W3C `traceparent` header (so the serve.request span
// joins the caller's trace), threads the span and a requestInfo carrier
// through the request context for the registry/batcher to annotate, echoes
// a traceparent back (the server span's context when tracing is on, the
// inbound value verbatim otherwise), and emits counters, an exemplar-stamped
// latency observation, and one structured access-log line per request.
func (s *Server) instrument(route string, w http.ResponseWriter, r *http.Request, h func(w *statusWriter, r *http.Request)) {
	inTP := r.Header.Get(obs.TraceparentHeader)
	var remote obs.SpanContext
	if inTP != "" {
		remote, _ = obs.ParseTraceparent(inTP) // malformed → fresh trace
	}
	_, span := s.rec.StartSpanIn("serve.request", remote)
	span.SetAttr("route", route)
	span.SetAttr("method", r.Method)
	traceID := span.Context().Trace.String()
	if span != nil {
		w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(span.Context()))
	} else if inTP != "" {
		// No tracer wired: echo the caller's header verbatim so propagation
		// is still observable end to end.
		w.Header().Set(obs.TraceparentHeader, inTP)
	}

	ri := &requestInfo{}
	ctx := withRequestInfo(r.Context(), ri)
	ctx = obs.ContextWithSpan(ctx, span)

	s.rec.SetGauge("serve.inflight", float64(s.inflight.Add(1)))
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	// The handler runs under a pprof route label, so CPU samples burned
	// anywhere below attribute to the route; the labeled context flows
	// down to the batcher, which stacks key/batch labels on top.
	profile.Do(ctx, func(lctx context.Context) {
		r = r.WithContext(lctx)
		h(sw, r)
	}, profile.LabelRoute, route)
	dur := time.Since(start)
	s.rec.SetGauge("serve.inflight", float64(s.inflight.Add(-1)))

	span.SetAttr("status", sw.status)
	if ri.key != "" {
		span.SetAttr("key", ri.key)
	}
	span.End()
	s.rec.Count("serve.requests", 1)
	s.rec.Count(fmt.Sprintf("serve.requests/%s", route), 1)
	if sw.status >= 400 {
		s.rec.Count("serve.request_errors", 1)
	}
	s.rec.ObserveEx("serve.request_us", float64(dur.Microseconds()), nil, traceID)

	slow := s.opts.SlowRequest > 0 && dur >= s.opts.SlowRequest
	if slow {
		// A slow request pokes the profile trigger (nil-safe, cooldown
		// inside): the capture of the moment it happened lands next to the
		// access-log line that flagged it.
		s.opts.Profiles.Capture(route)
	}

	if s.opts.AccessLog != nil {
		level := slog.LevelInfo
		if slow || sw.status >= 500 {
			level = slog.LevelWarn
		}
		s.opts.AccessLog.LogAttrs(r.Context(), level, "request",
			slog.String("trace", traceID),
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.Int("status", sw.status),
			slog.String("key", ri.key),
			slog.Int64("batch", ri.batchSize.Load()),
			slog.Int64("queue_us", ri.queueUS.Load()),
			slog.Int64("dur_us", dur.Microseconds()),
			slog.Bool("slow", slow),
		)
	}
}

// statusWriter remembers the response code for the span and error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.instrument("predict", w, r, func(w *statusWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteErrorStatus(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if s.draining.Load() {
			s.rec.Count("serve.shed_draining", 1)
			WriteError(w, ErrDraining)
			return
		}
		if s.opts.MaxInflight > 0 && s.inflight.Load() > int64(s.opts.MaxInflight) {
			s.rec.Count("serve.shed_overload", 1)
			WriteError(w, fmt.Errorf("%w: %d requests in flight", ErrOverloaded, s.inflight.Load()))
			return
		}
		var req PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		if err := ValidateKey(req.Adapter); err != nil {
			WriteError(w, err)
			return
		}
		if ri := requestInfoFrom(r.Context()); ri != nil {
			ri.key = req.Adapter
		}
		if len(req.Instance.Candidates) == 0 {
			// Prediction ranks candidate answers (DESIGN.md: open-domain tasks
			// are realized as ranking), so an empty set is unanswerable.
			WriteErrorStatus(w, http.StatusBadRequest, "instance needs candidate answers")
			return
		}
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		ans, cold, err := s.res.Predict(ctx, req.Adapter, req.Instance.instance())
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, PredictResponse{Adapter: req.Adapter, Answer: ans, Cold: cold})
	})
}

func (s *Server) handleAdapters(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.instrument("adapters", w, r, func(w *statusWriter, r *http.Request) {
			s.writeAdapterStats(w, r, "")
		})
	case http.MethodPost:
		s.instrument("warm", w, r, func(w *statusWriter, r *http.Request) {
			if s.draining.Load() {
				s.rec.Count("serve.shed_draining", 1)
				WriteError(w, ErrDraining)
				return
			}
			var req WarmRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				WriteErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
				return
			}
			if err := ValidateKey(req.Key); err != nil {
				WriteError(w, err)
				return
			}
			if ri := requestInfoFrom(r.Context()); ri != nil {
				ri.key = req.Key
			}
			ctx, cancel := s.requestCtx(r)
			defer cancel()
			cold, err := s.res.Warm(ctx, req.Key)
			if err != nil {
				WriteError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, WarmResponse{Key: req.Key, Cold: cold})
		})
	default:
		WriteErrorStatus(&statusWriter{ResponseWriter: w}, http.StatusMethodNotAllowed, "GET, POST, or DELETE /v1/adapters/{key} only")
	}
}

// handleAdapterKey serves the REST-shaped single-key routes under
// /v1/adapters/{key} (the key itself contains a slash: task/dataset).
// They share their implementations with the legacy collection routes:
// GET funnels into the same stats writer with a key filter, DELETE is
// explicit eviction through the resolver's optional Evicter.
func (s *Server) handleAdapterKey(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/adapters/")
	switch r.Method {
	case http.MethodGet:
		s.instrument("adapters", w, r, func(w *statusWriter, r *http.Request) {
			s.writeAdapterStats(w, r, key)
		})
	case http.MethodDelete:
		s.instrument("evict", w, r, func(w *statusWriter, r *http.Request) {
			s.evictAdapter(w, r, key)
		})
	default:
		WriteErrorStatus(&statusWriter{ResponseWriter: w}, http.StatusMethodNotAllowed, "GET or DELETE only")
	}
}

// writeAdapterStats renders resolver stats: the full snapshot when key is
// empty (GET /v1/adapters), or one key's entry with a 404 envelope when
// the resolver has never seen it (GET /v1/adapters/{key}).
func (s *Server) writeAdapterStats(w *statusWriter, r *http.Request, key string) {
	if key == "" {
		WriteJSON(w, http.StatusOK, AdaptersResponse{Resident: s.res.Resident(), Adapters: s.res.Snapshot()})
		return
	}
	if err := ValidateKey(key); err != nil {
		WriteError(w, err)
		return
	}
	if ri := requestInfoFrom(r.Context()); ri != nil {
		ri.key = key
	}
	for _, ks := range s.res.Snapshot() {
		if ks.Key == key {
			WriteJSON(w, http.StatusOK, ks)
			return
		}
	}
	WriteError(w, fmt.Errorf("%w: no stats for %q", ErrUnknownKey, key))
}

// evictAdapter serves DELETE /v1/adapters/{key}: drop the resident adapter
// (retiring its per-key gauges, exactly like an LRU eviction) without
// touching its request counters. A key the resolver has never seen is a
// 404; a known key that simply is not resident right now evicts nothing
// and reports evicted=false.
func (s *Server) evictAdapter(w *statusWriter, r *http.Request, key string) {
	if err := ValidateKey(key); err != nil {
		WriteError(w, err)
		return
	}
	if ri := requestInfoFrom(r.Context()); ri != nil {
		ri.key = key
	}
	ev, ok := s.res.(Evicter)
	if !ok {
		WriteErrorStatus(w, http.StatusNotImplemented, "resolver does not support eviction")
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	evicted, err := ev.Evict(ctx, key)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, EvictResponse{Key: key, Evicted: evicted})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.instrument("healthz", w, r, func(w *statusWriter, _ *http.Request) {
		goro, heap := profile.QuickReadings()
		WriteJSON(w, http.StatusOK, HealthResponse{
			OK:            true,
			Draining:      s.draining.Load(),
			UptimeS:       time.Since(s.start).Seconds(),
			GoVersion:     runtime.Version(),
			Revision:      s.revision,
			Resident:      s.res.Resident(),
			MaxBatch:      s.opts.MaxBatch,
			MaxWaitS:      s.opts.MaxWait.Seconds(),
			MaxAdapt:      s.opts.MaxAdapters,
			Goroutines:    goro,
			HeapLiveBytes: heap,
			Sampler:       s.opts.Sampler.Status(),
		})
	})
}

// handleReadyz is the readiness probe: 200 only while the server is
// accepting new work. It diverges from /healthz (pure liveness) exactly
// when a router should stop routing here — during a drain, or when the
// resolver itself reports unready (the cluster router with zero healthy
// backends). 503s carry Retry-After like any other shed response.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.instrument("readyz", w, r, func(w *statusWriter, _ *http.Request) {
		resp := ReadyResponse{OK: true, Resident: s.res.Resident()}
		if s.draining.Load() {
			resp.OK = false
			resp.Draining = true
			resp.Reason = ErrDraining.Error()
		} else if rc, ok := s.res.(ReadyChecker); ok {
			if err := rc.Ready(); err != nil {
				resp.OK = false
				resp.Reason = err.Error()
			}
		}
		if !resp.OK {
			w.Header().Set("Retry-After", "1")
			WriteJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	})
}
