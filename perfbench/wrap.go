package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ledger collects the timings the traced pass takes around the program's
// public seams: the Transferer, each Adapter's forward pass and each
// Resolver call. The wrappers only time and delegate; the program's code
// paths, options and answers are unchanged.
type ledger struct {
	mu        sync.Mutex
	fwd       map[*data.Instance]time.Duration // forward time of the batch that carried an instance, until its resolve call takes it
	batches   []batchRec                       // forwards through PredictBatch
	serial    int                              // forwards through the serial Predict
	resolves  []resolveRec
	transfers []transferRec
}

type batchRec struct {
	dur  time.Duration
	size int
}

type transferRec struct {
	key        string
	start, end time.Time
}

// resolveRec is one Resolver call. backend is the resolver's index (0 for
// the only local one); trace is the request's trace id when a span rides
// the context; fwd is the forward time of the batch that answered it.
type resolveRec struct {
	backend    int
	key        string
	trace      string
	start, end time.Time
	fwd        time.Duration
	cold, warm bool
	err        bool
}

func newLedger() *ledger {
	return &ledger{fwd: map[*data.Instance]time.Duration{}}
}

// transferer times each Transfer and wraps the adapter it returns.
func (l *ledger) transferer(inner serve.Transferer) serve.Transferer {
	return func(ctx context.Context, key string) (serve.Adapter, error) {
		start := time.Now()
		ad, err := inner(ctx, key)
		end := time.Now()
		l.mu.Lock()
		l.transfers = append(l.transfers, transferRec{key: key, start: start, end: end})
		l.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return l.adapter(ad), nil
	}
}

// adapter wraps ad so that it implements serve.BatchPredictor exactly when
// ad does: the batcher picks its path by that type assertion.
func (l *ledger) adapter(ad serve.Adapter) serve.Adapter {
	t := &timedAdapter{ad: ad, led: l}
	if bp, ok := ad.(serve.BatchPredictor); ok {
		return &timedBatchAdapter{timedAdapter: t, bp: bp}
	}
	return t
}

func (l *ledger) forward(ins []*data.Instance, dur time.Duration, batched bool) {
	l.mu.Lock()
	if batched {
		l.batches = append(l.batches, batchRec{dur: dur, size: len(ins)})
	} else {
		l.serial++
	}
	for _, in := range ins {
		l.fwd[in] = dur
	}
	l.mu.Unlock()
}

func (l *ledger) takeForward(in *data.Instance) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.fwd[in]
	delete(l.fwd, in)
	return d
}

func (l *ledger) addResolve(r resolveRec) {
	l.mu.Lock()
	l.resolves = append(l.resolves, r)
	l.mu.Unlock()
}

type timedAdapter struct {
	ad  serve.Adapter
	led *ledger
}

func (a *timedAdapter) Predict(ctx context.Context, in *data.Instance) string {
	start := time.Now()
	ans := a.ad.Predict(ctx, in)
	a.led.forward([]*data.Instance{in}, time.Since(start), false)
	return ans
}

type timedBatchAdapter struct {
	*timedAdapter
	bp serve.BatchPredictor
}

func (a *timedBatchAdapter) PredictBatch(ctx context.Context, ins []*data.Instance) []string {
	start := time.Now()
	out := a.bp.PredictBatch(ctx, ins)
	a.led.forward(ins, time.Since(start), true)
	return out
}

// evictingResolver is what every resolver of the program implements: the
// local Registry and the cluster Router both serve DELETE /v1/adapters.
type evictingResolver interface {
	serve.Resolver
	serve.Evicter
}

// timedResolver times every Predict and Warm call of the resolver it
// wraps. It implements serve.Evicter and serve.ReadyChecker by delegation,
// so the server's eviction and readiness behaviour are unchanged.
type timedResolver struct {
	inner   evictingResolver
	led     *ledger
	backend int
}

func (r *timedResolver) Predict(ctx context.Context, key string, in *data.Instance) (string, bool, error) {
	start := time.Now()
	ans, cold, err := r.inner.Predict(ctx, key, in)
	end := time.Now()
	r.led.addResolve(resolveRec{
		backend: r.backend, key: key, trace: traceOf(ctx), start: start, end: end,
		fwd: r.led.takeForward(in), cold: cold, err: err != nil,
	})
	return ans, cold, err
}

func (r *timedResolver) Warm(ctx context.Context, key string) (bool, error) {
	start := time.Now()
	cold, err := r.inner.Warm(ctx, key)
	r.led.addResolve(resolveRec{
		backend: r.backend, key: key, start: start, end: time.Now(),
		cold: cold, warm: true, err: err != nil,
	})
	return cold, err
}

func (r *timedResolver) Snapshot() []serve.KeyStats { return r.inner.Snapshot() }
func (r *timedResolver) Resident() int              { return r.inner.Resident() }

func (r *timedResolver) Evict(ctx context.Context, key string) (bool, error) {
	return r.inner.Evict(ctx, key)
}

func (r *timedResolver) Ready() error {
	if rc, ok := r.inner.(serve.ReadyChecker); ok {
		return rc.Ready()
	}
	return nil
}

func traceOf(ctx context.Context) string {
	if s := obs.SpanFromContext(ctx); s != nil {
		return s.Context().Trace.String()
	}
	return ""
}
