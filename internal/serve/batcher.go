package serve

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// BatchPredictor is the optional batched fast path of an Adapter: answer a
// whole micro-batch in one forward pass. core.Adapted implements it via the
// model's batched forward, which is bit-identical to serial Predict — the
// serve selftest gates on byte-equal answers, so an implementation may only
// provide this if it preserves exact per-request results. The returned slice
// must have one answer per instance; it may be scratch reused across calls
// (the batcher copies answers out before the next call).
type BatchPredictor interface {
	PredictBatch(ctx context.Context, ins []*data.Instance) []string
}

// predictReq is one queued prediction: the instance, the requester's
// context (checked again at serve time so abandoned work is shed), and a
// one-slot reply channel.
type predictReq struct {
	ctx  context.Context
	in   *data.Instance
	resp chan predictResp
	enq  time.Time
}

type predictResp struct {
	ans string
	err error
}

// sizeBounds are the histogram bounds for the small-count distributions of
// the service (queue depth, batch size): roughly 1-1.5-2 steps out to 256,
// where the latency bounds' decade steps would collapse everything into two
// buckets.
var sizeBounds = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

// batcher is the per-adapter micro-batching predict loop. Requests enqueue
// under a mutex; a single goroutine drains the queue into batches of at
// most maxBatch, lingering up to maxWait for stragglers once it holds at
// least one request, then answers the whole batch against the model.
// Batching serves two purposes: hot adapters answer the batch in one batched
// forward pass (see BatchPredictor), and — since the underlying model reuses
// scratch buffers and is not safe for concurrent Predict — the loop is also
// the per-adapter serialization point, so the registry can accept unbounded
// request concurrency without data races.
//
// The enqueue path checks the stopped flag under the same mutex that stop
// sets it, so after stop returns no new request can slip into the queue:
// everything queued is failed with errBatcherStopped (the registry's retry
// signal) and later arrivals are refused at the door. The per-key depth
// gauge is written only under that mutex too, which is what lets stop
// retire the gauge without racing a late enqueue's write.
type batcher struct {
	key      string
	ad       Adapter
	maxBatch int
	maxWait  time.Duration
	// serial forces the per-request oracle path even when the adapter
	// implements BatchPredictor (Options.SerialPredict; the perf gate's
	// baseline and the selftest's reference behavior).
	serial bool
	rec    *obs.Recorder
	// depthGauge is the per-key queue depth gauge name, precomputed so the
	// enqueue hot path does no string concatenation.
	depthGauge string
	// now is the clock, injectable for deterministic linger tests.
	now func() time.Time

	mu      sync.Mutex
	queue   []*predictReq
	stopped bool

	// wake (capacity 1) nudges the loop after an enqueue; coalesced wakes
	// are fine because the loop re-reads the queue under the mutex. stopc
	// unblocks the loop's waits on stop; done closes when the loop exits.
	wake  chan struct{}
	stopc chan struct{}
	done  chan struct{}

	// linger timer, allocated once per batcher and reused across batches
	// (Stop+drain+Reset protocol). timerInits counts allocations so the
	// reuse is testable; it is written only by the loop goroutine and read
	// after done closes.
	timer      *time.Timer
	timerInits int

	// serve-loop scratch, reused across batches (single owner: the loop).
	live []*predictReq
	ins  []*data.Instance
}

func newBatcher(key string, ad Adapter, maxBatch int, maxWait time.Duration, serial bool, rec *obs.Recorder) *batcher {
	b := &batcher{
		key:        key,
		ad:         ad,
		maxBatch:   maxBatch,
		maxWait:    maxWait,
		serial:     serial,
		rec:        rec,
		depthGauge: "serve.queue_depth/" + key,
		now:        time.Now,
		wake:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		done:       make(chan struct{}),
	}
	go b.run()
	return b
}

// predict enqueues one instance and waits for its batch to be served. A
// stopped batcher (the adapter was evicted) returns errBatcherStopped,
// which Registry.Predict treats as "re-resolve and retry".
func (b *batcher) predict(ctx context.Context, in *data.Instance) (string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &predictReq{ctx: ctx, in: in, resp: make(chan predictResp, 1), enq: b.now()}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return "", errBatcherStopped
	}
	b.queue = append(b.queue, r)
	depth := len(b.queue)
	b.rec.SetGauge(b.depthGauge, float64(depth))
	b.mu.Unlock()
	b.rec.Observe("serve.queue_depth", float64(depth), sizeBounds)
	select {
	case b.wake <- struct{}{}:
	default:
	}
	// The loop owns the request from here: even if this requester gives up,
	// the batch will answer into the buffered resp channel and move on.
	select {
	case resp := <-r.resp:
		return resp.ans, resp.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// stop refuses new requests, fails everything still queued, waits for the
// loop to exit, and retires the per-key depth gauge (an evicted key must
// disappear from /metrics, not linger as a stale series). Queued requesters
// get errBatcherStopped and transparently re-resolve through the registry.
func (b *batcher) stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
	} else {
		b.stopped = true
		b.mu.Unlock()
		close(b.stopc)
	}
	<-b.done
	// Safe against enqueue races: every gauge write happens under b.mu with
	// stopped false, which happens-before the loop exit observed above.
	b.rec.DeleteGauge(b.depthGauge)
}

// run is the drain loop: wait for work, linger for stragglers, serve the
// batch, repeat until stopped.
func (b *batcher) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		if b.stopped {
			q := b.queue
			b.queue = nil
			b.mu.Unlock()
			for _, r := range q {
				r.resp <- predictResp{err: errBatcherStopped}
			}
			return
		}
		if len(b.queue) == 0 {
			b.mu.Unlock()
			select {
			case <-b.wake:
			case <-b.stopc:
			}
			continue
		}
		pending := len(b.queue)
		oldest := b.queue[0].enq
		b.mu.Unlock()

		// Linger: a non-full batch waits for stragglers so bursts coalesce.
		// The deadline anchors at the OLDEST queued request's enqueue time,
		// not at linger entry: under back-to-back batches the loop may reach
		// this point long after the request arrived, and re-starting the
		// clock here would stretch the documented maxWait bound into up to
		// 2x tail latency. Singleton traffic pays at most maxWait extra
		// latency; a full batch (or maxBatch 1) goes immediately.
		if pending < b.maxBatch && b.maxBatch > 1 {
			if wait := b.maxWait - b.now().Sub(oldest); wait > 0 {
				b.linger(wait)
			}
		}

		b.mu.Lock()
		n := len(b.queue)
		if n > b.maxBatch {
			n = b.maxBatch
		}
		batch := make([]*predictReq, n)
		copy(batch, b.queue[:n])
		rest := b.queue[n:]
		b.queue = append(b.queue[:0:0], rest...)
		b.rec.SetGauge(b.depthGauge, float64(len(b.queue)))
		b.mu.Unlock()
		b.serve(batch)
	}
}

// linger blocks until the batch fills, wait elapses, or stop. Wake signals
// re-check the queue length under the mutex, so coalesced wakes and spurious
// ones are harmless. The timer is allocated once per batcher and reused with
// the Stop+drain+Reset protocol — one timer per batch on the hot path was
// pure allocation churn.
func (b *batcher) linger(wait time.Duration) {
	if b.timer == nil {
		b.timer = time.NewTimer(wait)
		b.timerInits++
	} else {
		if !b.timer.Stop() {
			select {
			case <-b.timer.C:
			default:
			}
		}
		b.timer.Reset(wait)
	}
	for {
		select {
		case <-b.wake:
			b.mu.Lock()
			full := len(b.queue) >= b.maxBatch || b.stopped
			b.mu.Unlock()
			if full {
				return
			}
		case <-b.timer.C:
			return
		case <-b.stopc:
			return
		}
	}
}

// serve answers one batch. Per-adapter calls are serialized by construction
// (one loop per batcher); requests whose context already expired are shed
// without touching the model. When the adapter implements BatchPredictor
// (and the batcher is not pinned serial), the surviving requests are
// answered by ONE batched forward pass; otherwise — and as the fallback if
// the batched call returns the wrong number of answers — each request runs
// through the serial oracle path.
//
// The serve.batch span lives in its own trace — batching is shared work, so
// it belongs to no single request — and instead *links* every member
// request's span, the OTel link idiom for amortized execution. Each member's
// queue wait is annotated onto its own request span and fed back to the
// access log through the requestInfo carrier, so "my request was slow" and
// "the batch it rode was busy" stay connected.
func (b *batcher) serve(batch []*predictReq) {
	_, span := b.rec.StartSpan("serve.batch")
	span.SetAttr("key", b.key)
	span.SetAttr("size", len(batch))
	start := time.Now()
	// Counted before any member is answered, so a reader who has seen every
	// response also sees serve.batches >= serve.batched_predicts.
	b.rec.Count("serve.batches", 1)
	b.rec.Observe("serve.batch_size", float64(len(batch)), sizeBounds)
	batchLabel := strconv.Itoa(len(batch))
	live := b.live[:0]
	for _, r := range batch {
		queueUS := b.now().Sub(r.enq).Microseconds()
		b.rec.Observe("serve.queue_us", float64(queueUS), nil)
		if rs := obs.SpanFromContext(r.ctx); rs != nil {
			span.Link(rs.Context())
			rs.SetAttr("queue_us", queueUS)
		}
		if ri := requestInfoFrom(r.ctx); ri != nil {
			ri.batchSize.Store(int64(len(batch)))
			ri.queueUS.Store(queueUS)
		}
		if err := r.ctx.Err(); err != nil {
			r.resp <- predictResp{err: err}
			b.rec.Count("serve.shed", 1)
			continue
		}
		live = append(live, r)
	}
	b.live = live[:0] // retain grown scratch for the next batch
	if bp, ok := b.ad.(BatchPredictor); ok && !b.serial && len(live) > 0 {
		ins := b.ins[:0]
		for _, r := range live {
			ins = append(ins, r.in)
		}
		b.ins = ins[:0]
		ps := span.StartChild("serve.predict")
		ps.SetAttr("size", len(live))
		// One batched forward under pprof labels; the batch runs on behalf
		// of every member, so it is labeled but not cancellable by any
		// single requester (expired members were already shed above).
		var answers []string
		profile.Do(context.Background(), func(ctx context.Context) {
			answers = bp.PredictBatch(ctx, ins)
		}, profile.LabelKey, b.key, profile.LabelBatch, batchLabel)
		ps.End()
		if len(answers) == len(live) {
			b.rec.Count("serve.batched_predicts", 1)
			for i, r := range live {
				r.resp <- predictResp{ans: answers[i]}
			}
			live = live[:0]
		}
	}
	for _, r := range live {
		ps := span.StartChild("serve.predict")
		// Predict runs under pprof labels — key and batch size on top of
		// whatever the request context already carries (route) — so CPU
		// samples attribute to the adapter that burned them. Labeling the
		// request's own ctx keeps its cancellation semantics intact.
		var ans string
		profile.Do(r.ctx, func(ctx context.Context) {
			ans = b.ad.Predict(ctx, r.in)
		}, profile.LabelKey, b.key, profile.LabelBatch, batchLabel)
		ps.End()
		r.resp <- predictResp{ans: ans}
	}
	b.rec.Observe("serve.batch_us", float64(time.Since(start).Microseconds()), nil)
	span.End()
}
