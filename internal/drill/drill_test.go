package drill

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fakeAdapter picks one of an instance's candidates as a function of key
// and instance ID — deterministic like a same-seed zoo adapter — after a
// short delay that, with batching linger, outlasts the route drill's 2ms
// hedge delay, so hedges fire.
type fakeAdapter struct{ key string }

func fakeAnswer(key, id string, candidates []string) string {
	return candidates[len(key+id)%len(candidates)]
}

func (a fakeAdapter) Predict(_ context.Context, in *data.Instance) string {
	time.Sleep(time.Millisecond)
	return fakeAnswer(a.key, in.ID, in.Candidates)
}

func (a fakeAdapter) PredictBatch(ctx context.Context, ins []*data.Instance) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = a.Predict(ctx, in)
	}
	return out
}

func fakeTransfer(_ context.Context, key string) (serve.Adapter, error) {
	for _, k := range (fakeRef{}).Keys() {
		if k == key {
			return fakeAdapter{key: key}, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", serve.ErrUnknownKey, key)
}

// fakeRef is a Reference over fakeTransfer: four keys, eight instances each.
type fakeRef struct{}

func (fakeRef) Keys() []string { return []string{"EM/A", "EM/B", "ED/C", "ED/D"} }

func (fakeRef) Instances(key string) []*data.Instance {
	out := make([]*data.Instance, 8)
	for i := range out {
		out[i] = &data.Instance{
			ID:         fmt.Sprintf("%s-%d", key, i),
			Fields:     []data.Field{{Name: "name", Value: fmt.Sprint("v", i)}},
			Candidates: []string{"yes", "no"},
			Gold:       0,
		}
	}
	return out
}

func (fakeRef) Transfer(ctx context.Context, key string) (serve.Adapter, error) {
	return fakeTransfer(ctx, key)
}

// memBackend is an in-process fleet member: a serve.Server over
// fakeTransfer on a loopback listener.
type memBackend struct {
	srv *serve.Server
	hs  *http.Server
	url string
}

func spawnMem() (Backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opts := serve.Options{}
	srv := serve.NewServer(serve.NewRegistry(fakeTransfer, opts), opts)
	b := &memBackend{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String()}
	go b.hs.Serve(ln) //nolint:errcheck
	return b, nil
}

func (b *memBackend) URL() string { return b.url }
func (b *memBackend) Kill()       { b.hs.Close() }

func (b *memBackend) Drain(timeout time.Duration) error {
	b.srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return b.hs.Shutdown(ctx)
}

// value returns the named metric of a report.
func value(r *Report, name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// mustHold fails the test on a broken invariant and pins named values.
func mustHold(t *testing.T, r *Report, want map[string]float64) {
	t.Helper()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	for name, v := range want {
		if got, ok := value(r, name); !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	if r.Env.GoVersion == "" || r.Env.GOMAXPROCS < 1 || r.Env.CPU == "" || r.Env.Revision == "" {
		t.Errorf("env not recorded: %+v", r.Env)
	}
}

func TestServeDrill(t *testing.T) {
	for _, tc := range []struct {
		name string
		warm bool
	}{{"cold batched", false}, {"warm batched", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.NewRegistry(), nil)
			opts := serve.Options{MaxBatch: 4, MaxWait: time.Millisecond, Rec: rec}
			reg := serve.NewRegistry(fakeTransfer, opts)
			r, err := Serve(context.Background(), ServeSpec{
				Handler: serve.NewServer(reg, opts), Registry: reg, Metrics: rec.Metrics, Reference: fakeRef{},
				Requests: 64, Concurrency: 16, Adapters: 4, Warm: tc.warm, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			mustHold(t, r, map[string]float64{"requests": 64, "mismatches": 0, "keys_single_transfer": 4, "unbatched_batches": 0})
			if r.Notes["sample_trace"] == "" {
				t.Error("no sample trace recorded")
			}
		})
	}
}

// TestRouteDrill runs the route drill over three in-process backends and
// kills one of them mid-load.
func TestRouteDrill(t *testing.T) {
	r, err := Route(context.Background(), RouteSpec{
		Spawn: spawnMem, Reference: fakeRef{}, Router: cluster.Options{Replication: 2, Seed: 7},
		RequestTimeout: 10 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustHold(t, r, map[string]float64{"requests": 512, "non_2xx": 0, "victim_ejected": 1, "drained_clean": 2})
	if r.Notes["killed_backend"] == "" {
		t.Error("no killed backend recorded")
	}
}

// crashInProcess runs the job through a router over the fleet and cancels
// it once killAfter shards are durable — the in-process stand-in for a
// SIGKILLed `job run`.
func crashInProcess(ctx context.Context, specPath string, urls []string, ckpt string, killAfter int) error {
	sp, err := jobs.ParseSpecFile(specPath)
	if err != nil {
		return err
	}
	router, err := cluster.New(cluster.Options{Backends: urls, Replication: 2})
	if err != nil {
		return err
	}
	defer router.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	eng := &jobs.Engine{Res: router, CheckpointDir: ckpt, OnCommit: func(_, n int) {
		if n >= killAfter {
			cancel()
		}
	}}
	p, err := eng.Plan(sp)
	if err != nil {
		return err
	}
	_, err = eng.Run(ctx, p, nil)
	return err
}

func jobSpec(t *testing.T, crash Crash) JobSpec {
	return JobSpec{
		Spawn: spawnMem, Reference: fakeRef{}, Crash: crash, Replication: 2, Seed: 7,
		Workdir: t.TempDir(),
	}
}

// TestJobDrill kills a job after two commits and resumes it.
func TestJobDrill(t *testing.T) {
	r, err := Job(context.Background(), jobSpec(t, crashInProcess))
	if err != nil {
		t.Fatal(err)
	}
	mustHold(t, r, map[string]float64{"rows": 64, "byte_identical": 1, "resumed_equals_committed": 1, "duplicate_transfers": 0})
	if c, _ := value(r, "committed_before_kill"); c < 2 || c >= 8 {
		t.Errorf("committed_before_kill = %v", c)
	}
}

// TestJobDrillMeasuresTheKill: a "crash" that lets the job finish must
// fail the kill verdicts — they are measured, not asserted.
func TestJobDrillMeasuresTheKill(t *testing.T) {
	finish := func(ctx context.Context, specPath string, urls []string, ckpt string, _ int) error {
		return crashInProcess(ctx, specPath, urls, ckpt, 1<<30)
	}
	r, err := Job(context.Background(), jobSpec(t, finish))
	if err != nil {
		t.Fatal(err)
	}
	if r.Check() == nil {
		t.Fatal("a job that was never killed passed the drill")
	}
	for name, want := range map[string]float64{"killed_run_died": 0, "kill_left_partial": 0, "byte_identical": 1} {
		if got, _ := value(r, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestRunLoadAgainstServer(t *testing.T) {
	reg := serve.NewRegistry(fakeTransfer, serve.Options{MaxBatch: 4, MaxWait: time.Millisecond})
	srv := httptest.NewServer(serve.NewServer(reg, serve.Options{}))
	defer srv.Close()
	keys := (fakeRef{}).Keys()
	var items []LoadItem
	for i := 0; i < 128; i++ {
		key, id, cands := keys[i%len(keys)], fmt.Sprint(i), []string{"yes", "no"}
		items = append(items, LoadItem{
			Key:  key,
			In:   serve.WireInstance{ID: id, Candidates: cands},
			Want: fakeAnswer(key, id, cands), // the fake's deterministic direct-path answer
		})
	}
	rep, err := RunLoad(context.Background(), srv.URL, items, LoadOptions{Concurrency: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Non2xx != 0 || rep.Mismatches != 0 || rep.TraceEchoMisses != 0 {
		t.Fatalf("report = %+v (first error: %s)", rep, rep.FirstError)
	}
	if rep.SampleTrace == "" {
		t.Fatal("load report carries no sample trace")
	}
	if rep.Requests != 128 || rep.P50us <= 0 || rep.P95us < rep.P50us || rep.RPS <= 0 {
		t.Fatalf("implausible report %+v", rep)
	}
	for _, st := range reg.Snapshot() {
		if st.Transfers != 1 {
			t.Fatalf("key %s transferred %d times under coalesced load, want 1", st.Key, st.Transfers)
		}
	}
}

// TestRunLoadCountsMismatches: the byte-identity check actually fires.
func TestRunLoadCountsMismatches(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(serve.NewRegistry(fakeTransfer, serve.Options{}), serve.Options{}))
	defer srv.Close()
	items := []LoadItem{{
		Key:  "EM/A",
		In:   serve.WireInstance{ID: "1", Candidates: []string{"yes", "no"}},
		Want: "maybe",
	}}
	rep, err := RunLoad(context.Background(), srv.URL, items, LoadOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 1 || rep.FirstError == "" {
		t.Fatalf("report = %+v, want one mismatch", rep)
	}
}
