package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
)

// stubBatchAdapter adds a BatchPredictor face to stubAdapter: answers are
// computed by the same formula as serial Predict, the returned slice is
// scratch reused across calls (the contract the batcher must honor), and
// concurrent entry is detected through the embedded inCall/raced pair.
type stubBatchAdapter struct {
	stubAdapter
	batchCalls  atomic.Int32
	serialCalls atomic.Int32
	// wrongLen makes PredictBatch return one answer short — the defensive
	// fallback case.
	wrongLen bool
	ans      []string
}

func (a *stubBatchAdapter) Predict(ctx context.Context, in *data.Instance) string {
	a.serialCalls.Add(1)
	return a.stubAdapter.Predict(ctx, in)
}

func (a *stubBatchAdapter) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	if a.inCall.Add(1) != 1 {
		a.raced.Store(true)
	}
	defer a.inCall.Add(-1)
	a.batchCalls.Add(1)
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	a.ans = a.ans[:0]
	for _, in := range ins {
		a.ans = append(a.ans, a.key+":"+in.ID)
	}
	if a.wrongLen {
		return a.ans[:len(a.ans)-1]
	}
	return a.ans
}

// stepClock is a deterministic clock for linger tests: the first now() call
// (the request's enqueue stamp) returns base, every later call returns
// base+step — so the drain loop's deadline arithmetic sees exactly step
// elapsed since enqueue, regardless of goroutine interleaving.
type stepClock struct {
	mu    sync.Mutex
	calls int
	base  time.Time
	step  time.Duration
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls == 1 {
		return c.base
	}
	return c.base.Add(c.step)
}

// newClockBatcher is newBatcher with an injected clock (set before the loop
// starts, so the loop never races the assignment).
func newClockBatcher(ad Adapter, maxBatch int, maxWait time.Duration, clk func() time.Time) *batcher {
	b := &batcher{
		key:        "K",
		ad:         ad,
		maxBatch:   maxBatch,
		maxWait:    maxWait,
		depthGauge: "serve.queue_depth/K",
		now:        clk,
		wake:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		done:       make(chan struct{}),
	}
	go b.run()
	return b
}

// TestLingerAnchorsAtOldestEnqueue is the regression test for the linger
// deadline bug: the straggler wait must be measured from the oldest queued
// request's enqueue, not from linger entry. The fake clock reports that
// more than maxWait already elapsed since the enqueue, so the loop must
// serve immediately — with the old entry-anchored deadline this request
// would sit out the full (here deliberately enormous) maxWait.
func TestLingerAnchorsAtOldestEnqueue(t *testing.T) {
	clk := &stepClock{base: time.Unix(1000, 0), step: 10*time.Second + time.Millisecond}
	b := newClockBatcher(&stubAdapter{key: "K"}, 8, 10*time.Second, clk.now)
	defer b.stop()

	done := make(chan string, 1)
	go func() {
		ans, err := b.predict(context.Background(), inst("1"))
		if err != nil {
			t.Error(err)
		}
		done <- ans
	}()
	select {
	case ans := <-done:
		if ans != "K:1" {
			t.Fatalf("answer %q, want %q", ans, "K:1")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("request stuck in linger despite its enqueue-anchored deadline having passed")
	}
}

// TestLingerStillWaitsWhenFresh is the counterpart: with a frozen clock
// (zero elapsed since enqueue) the loop must still linger, so a second
// request arriving during the wait coalesces into the same batch.
func TestLingerStillWaitsWhenFresh(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	frozen := time.Unix(1000, 0)
	ad := &stubBatchAdapter{stubAdapter: stubAdapter{key: "K"}}
	b := newClockBatcher(ad, 8, 300*time.Millisecond, func() time.Time { return frozen })
	b.rec = rec
	defer b.stop()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.predict(context.Background(), inst(fmt.Sprint(i))); err != nil {
				t.Error(err)
			}
		}(i)
		time.Sleep(20 * time.Millisecond) // second request lands mid-linger
	}
	wg.Wait()
	if max := reg.Histogram("serve.batch_size", sizeBounds).Snapshot().Max; max < 2 {
		t.Fatalf("max batch size %v; the straggler should have joined the lingering batch", max)
	}
}

// TestLingerTimerReused: the linger timer is allocated once per batcher and
// reused across batches, not once per linger.
func TestLingerTimerReused(t *testing.T) {
	b := newBatcher("K", &stubAdapter{key: "K"}, 2, 50*time.Millisecond, nil)
	for i := 0; i < 6; i++ {
		if _, err := b.predict(context.Background(), inst(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	b.stop() // closes done: the loop's timerInits writes are visible now
	if b.timerInits != 1 {
		t.Fatalf("timerInits = %d, want exactly 1 (one reused timer per batcher)", b.timerInits)
	}
}

// TestBatchedPredictMatchesSerialUnderLoad drives 64 concurrent requests
// through two batchers over equivalent adapters — one batched, one
// Predict-only and so answered per request — and requires byte-identical
// answers, with the batched side never touching the serial entry point. Run
// under -race this also exercises the depth-gauge-under-mutex and
// scratch-ownership invariants.
func TestBatchedPredictMatchesSerialUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	adB := &stubBatchAdapter{stubAdapter: stubAdapter{key: "K", delay: time.Millisecond}}
	adS := &stubAdapter{key: "K", delay: time.Millisecond}
	bb := newBatcher("K", adB, 8, 2*time.Millisecond, rec)
	bs := newBatcher("K", adS, 8, 2*time.Millisecond, rec)
	defer bb.stop()
	defer bs.stop()

	const n = 64
	var wg sync.WaitGroup
	errCh := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := inst(fmt.Sprint(i))
			got, err := bb.predict(context.Background(), in)
			if err != nil {
				errCh <- err
				return
			}
			want, err := bs.predict(context.Background(), in)
			if err != nil {
				errCh <- err
				return
			}
			if got != want {
				errCh <- fmt.Errorf("request %d: batched %q != serial %q", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if adB.raced.Load() || adS.raced.Load() {
		t.Fatal("concurrent adapter entry: the batcher must serialize per-adapter calls")
	}
	if adB.serialCalls.Load() != 0 {
		t.Fatalf("batched batcher made %d serial Predict calls", adB.serialCalls.Load())
	}
	if adB.batchCalls.Load() == 0 {
		t.Fatal("batched batcher never called PredictBatch")
	}
	if c := reg.Counter("serve.batched_predicts").Value(); c == 0 {
		t.Fatal("serve.batched_predicts counter never incremented")
	}
}

// TestBatchFallsBackOnWrongLength: a BatchPredictor returning the wrong
// number of answers must not corrupt responses — the batch re-runs through
// per-request Predict calls.
func TestBatchFallsBackOnWrongLength(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	ad := &stubBatchAdapter{stubAdapter: stubAdapter{key: "K"}, wrongLen: true}
	b := newBatcher("K", ad, 4, time.Millisecond, rec)
	defer b.stop()

	for i := 0; i < 3; i++ {
		ans, err := b.predict(context.Background(), inst(fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := "K:" + fmt.Sprint(i); ans != want {
			t.Fatalf("answer %q, want %q", ans, want)
		}
	}
	if ad.serialCalls.Load() == 0 {
		t.Fatal("wrong-length batch never fell back to serial Predict")
	}
	if c := reg.Counter("serve.batched_predicts").Value(); c != 0 {
		t.Fatalf("serve.batched_predicts = %d for a misbehaving BatchPredictor, want 0", c)
	}
}

// TestEvictionRetiresDepthGauge is the registry-churn gate: when the LRU
// evicts a key, its per-key queue-depth gauge must disappear from the
// metrics snapshot instead of lingering as a stale series, while the
// surviving key's gauge stays.
func TestEvictionRetiresDepthGauge(t *testing.T) {
	mreg := obs.NewRegistry()
	rec := obs.NewRecorder(mreg, nil)
	tr := newStubTransferer(0)
	reg := NewRegistry(tr.transfer, Options{MaxAdapters: 1, MaxBatch: 2, MaxWait: time.Millisecond, Rec: rec})

	if _, _, err := reg.Predict(context.Background(), "EM/A", inst("1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := mreg.Snapshot().Gauges["serve.queue_depth/EM/A"]; !ok {
		t.Fatal("depth gauge for resident key missing before eviction")
	}
	// Second key evicts the first (MaxAdapters 1); the evicted batcher stops
	// asynchronously, so poll for the gauge to vanish.
	if _, _, err := reg.Predict(context.Background(), "EM/B", inst("1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := mreg.Snapshot().Gauges["serve.queue_depth/EM/A"]; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted key's depth gauge still exported")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := mreg.Snapshot().Gauges["serve.queue_depth/EM/B"]; !ok {
		t.Fatal("surviving key's depth gauge missing")
	}
}
