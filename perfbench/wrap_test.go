package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
)

// batchAdapter answers with the first candidate, serially or a batch at a
// time; a batch takes a millisecond so concurrent requests queue behind it.
type batchAdapter struct{}

func (batchAdapter) Predict(_ context.Context, in *data.Instance) string { return in.Candidates[0] }

func (batchAdapter) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	time.Sleep(time.Millisecond)
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Candidates[0]
	}
	return out
}

type serialAdapter struct{}

func (serialAdapter) Predict(_ context.Context, in *data.Instance) string { return in.Candidates[0] }

const testKey = "EM/Test"

// tracedStack is a registry behind the traced pass's wrappers, recording
// into rec.
func tracedStack(rec *obs.Recorder) (*ledger, *serve.Registry, *timedResolver) {
	led := newLedger()
	transfer := led.transferer(func(context.Context, string) (serve.Adapter, error) { return batchAdapter{}, nil })
	reg := serve.NewRegistry(transfer, serve.Options{Rec: rec})
	return led, reg, &timedResolver{inner: reg, led: led}
}

func testInstance(i int) *data.Instance {
	return &data.Instance{
		ID:         fmt.Sprintf("row%05d", i),
		Fields:     []data.Field{{Name: "title", Value: fmt.Sprintf("item %d", i)}},
		Candidates: []string{"yes", "no"},
		Gold:       0,
	}
}

func TestWrappersKeepTheSeamsInterfaces(t *testing.T) {
	led := newLedger()
	if _, ok := led.adapter(batchAdapter{}).(serve.BatchPredictor); !ok {
		t.Error("wrapped batch adapter lost serve.BatchPredictor")
	}
	if _, ok := led.adapter(serialAdapter{}).(serve.BatchPredictor); ok {
		t.Error("wrapping a serial adapter added a batched path")
	}
	var res serve.Resolver = &timedResolver{inner: serve.NewRegistry(nil, serve.Options{}), led: led}
	if _, ok := res.(serve.Evicter); !ok {
		t.Error("wrapped resolver lost serve.Evicter")
	}
	if rc, ok := res.(serve.ReadyChecker); !ok || rc.Ready() != nil {
		t.Error("wrapped registry must be a ReadyChecker that is ready, as the bare registry is")
	}
}

func TestWrappedServerBatchesAndEvicts(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), obs.NewTracer(io.Discard))
	led, reg, res := tracedStack(rec)
	srv := httptest.NewServer(serve.NewServer(res, serve.Options{Rec: rec}))
	defer srv.Close()
	c := newClient(srv.URL, 8, 1)
	defer c.close()
	body := func(i int) []byte {
		b, err := predictBody(testKey, testInstance(i))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if ans, _, err := c.predict(ctx, body(i)); err != nil || ans != "yes" {
				t.Errorf("predict %d: %q, %v", i, ans, err)
			}
		}(i)
	}
	wg.Wait()
	ms := rec.Metrics.Snapshot()
	if b, bp := ms.Counters["serve.batches"], ms.Counters["serve.batched_predicts"]; b == 0 || b != bp {
		t.Errorf("serve.batches %d, serve.batched_predicts %d: the batched path must serve every batch", b, bp)
	}
	if led.serial != 0 || int64(len(led.batches)) != ms.Counters["serve.batches"] {
		t.Errorf("%d batched and %d serial forwards for %d batches", len(led.batches), led.serial, ms.Counters["serve.batches"])
	}

	evicted, err := c.evict(ctx, testKey)
	if err != nil || !evicted || reg.Resident() != 0 {
		t.Fatalf("DELETE through the wrapper: evicted %v, err %v, %d resident", evicted, err, reg.Resident())
	}
	if _, _, err := c.predict(ctx, body(0)); err != nil {
		t.Fatal(err)
	}
	if n := sumTransfers(reg.Snapshot()); n != 2 || len(led.transfers) != 2 {
		t.Errorf("after an eviction the next predict must run one fresh Transfer: %d Transfers, %d timed", n, len(led.transfers))
	}
}

func TestWrappedJobEngineFillsBatches(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), obs.NewTracer(io.Discard))
	led, _, res := tracedStack(rec)
	dir := t.TempDir()
	ds := &data.Dataset{Name: "test", Task: "EM"}
	for i := 0; i < 256; i++ {
		ds.Test = append(ds.Test, testInstance(i))
	}
	input := filepath.Join(dir, "input.json")
	f, err := os.Create(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataio.EncodeJSON(ds, "", f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sp := &jobs.Spec{Adapter: testKey, Input: jobs.Input{Path: input}, Output: jobs.Output{Path: filepath.Join(dir, "out.csv")}, Shards: 8}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	eng := &jobs.Engine{Res: res, CheckpointDir: filepath.Join(dir, "ckpt"), Rec: rec}
	plan, err := eng.Plan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), plan, nil); err != nil {
		t.Fatal(err)
	}
	rows, err := readOutput(sp.Output.Path)
	if err != nil || len(rows) != 256 {
		t.Fatalf("output: %d rows, %v", len(rows), err)
	}
	ms := rec.Metrics.Snapshot()
	if b, bp := ms.Counters["serve.batches"], ms.Counters["serve.batched_predicts"]; b == 0 || b != bp || led.serial != 0 {
		t.Errorf("serve.batches %d, serve.batched_predicts %d, %d serial forwards", b, bp, led.serial)
	}
	if mean := ms.Histograms["serve.batch_size"].Mean; mean <= 1 {
		t.Errorf("bulk rows through the wrapped resolver rode batches of %.2f on average; the engine's concurrency must fill them", mean)
	}
	if len(led.resolves) != 256 {
		t.Errorf("%d resolves timed for 256 rows", len(led.resolves))
	}
}
