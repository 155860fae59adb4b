package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/serve"
)

// item is one instance a workload can send: a test instance of one
// adapter key with its PredictRequest body encoded ahead of the window.
type item struct {
	key  string
	in   *data.Instance
	body []byte
}

// poolFor lists every test instance of keys, key by key in split order.
func poolFor(z *eval.Zoo, keys []string) ([]item, error) {
	var pool []item
	for _, key := range keys {
		b, ok := z.FindDownstream(key)
		if !ok {
			return nil, fmt.Errorf("unknown downstream key %q", key)
		}
		for _, in := range b.DS.Test {
			body, err := predictBody(key, in)
			if err != nil {
				return nil, err
			}
			pool = append(pool, item{key: key, in: in, body: body})
		}
	}
	return pool, nil
}

// groupByKey lists the pool's keys in pool order and the pool indices of
// each.
func groupByKey(pool []item) ([]string, map[string][]int) {
	var keys []string
	byKey := map[string][]int{}
	for i, it := range pool {
		if byKey[it.key] == nil {
			keys = append(keys, it.key)
		}
		byKey[it.key] = append(byKey[it.key], i)
	}
	return keys, byKey
}

func predictBody(key string, in *data.Instance) ([]byte, error) {
	return json.Marshal(serve.PredictRequest{Adapter: key, Instance: serve.WireFrom(in)})
}

// zooTransferer adapts eval.Zoo.TransferDataset to the registry's seam the
// way `knowtrans serve` does.
func zooTransferer(z *eval.Zoo) serve.Transferer {
	return func(ctx context.Context, key string) (serve.Adapter, error) {
		ad, err := z.TransferDataset(ctx, key, eval.Size7B)
		if err != nil {
			if errors.Is(err, eval.ErrUnknownDataset) {
				return nil, fmt.Errorf("%w: %v", serve.ErrUnknownKey, err)
			}
			return nil, err
		}
		return ad, nil
	}
}

// pass is one timed run of a workload against a freshly built stack. An
// untraced pass runs the program as `knowtrans serve` does, with a
// metrics-only recorder; the traced pass adds a tracer and the timing
// wrappers (led).
type pass struct {
	b     *bench
	rec   *obs.Recorder
	led   *ledger
	ready time.Time

	winStart, winEnd time.Time
	rt0, rt1         profile.Stats
	m0, m1, mClosed  obs.RegistrySnapshot
	traceLen         int

	stops []func()
}

func (p *pass) traced() bool { return p.led != nil }

func (p *pass) transferer() serve.Transferer {
	t := zooTransferer(p.b.z)
	if p.traced() {
		t = p.led.transferer(t)
	}
	return t
}

// resolver is a resolver as the server and the job engine see it: itself,
// or in the traced pass behind a timing wrapper.
func (p *pass) resolver(r evictingResolver, backend int) evictingResolver {
	if p.traced() {
		return &timedResolver{inner: r, led: p.led, backend: backend}
	}
	return r
}

func (p *pass) opts() serve.Options { return serve.Options{Rec: p.rec} }

// registry builds a registry over the pass's transferer. When the pass
// closes, its resident adapters are evicted, which stops their batchers.
func (p *pass) registry() *serve.Registry {
	reg := serve.NewRegistry(p.transferer(), p.opts())
	p.onClose(func() {
		for _, st := range reg.Snapshot() {
			if st.Resident {
				_, _ = reg.Evict(context.Background(), st.Key) // a resident key is known, so this cannot fail
			}
		}
	})
	return reg
}

// listen serves h on a loopback port until the pass closes.
func (p *pass) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once closed below
	}()
	p.onClose(func() {
		// Shutdown waits for in-flight handlers, so the pass ends quiescent.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close() // the timeout is already the failure worth knowing; Close only frees the port
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

func (p *pass) onClose(f func()) { p.stops = append(p.stops, f) }

// close stops everything the pass started, newest first, and takes the
// pass's final metrics.
func (p *pass) close() {
	for i := len(p.stops) - 1; i >= 0; i-- {
		p.stops[i]()
	}
	p.stops = nil
	p.mClosed = p.rec.Metrics.Snapshot()
}

// markReady ends set-up: the stack listens and its adapters are warm.
func (p *pass) markReady() { p.ready = time.Now() }

func newPass(b *bench, rec *obs.Recorder, led *ledger) *pass {
	return &pass{b: b, rec: rec, led: led, m0: rec.Metrics.Snapshot()}
}

func (p *pass) startWindow() {
	p.rt0 = profile.ReadStats()
	p.winStart = time.Now()
}

func (p *pass) endWindow() {
	p.winEnd = time.Now()
	p.rt1 = profile.ReadStats()
	p.m1 = p.rec.Metrics.Snapshot()
	if p.b.spans != nil {
		p.traceLen = p.b.spans.len()
	}
}

func (p *pass) window() time.Duration { return p.winEnd.Sub(p.winStart) }

// counter is a counter's growth from the start of the pass (its set-up
// included) to the end of its timed window.
func (p *pass) counter(name string) int64 { return p.m1.Counters[name] - p.m0.Counters[name] }

// spanBuf keeps the trace in memory; the tracer serializes its writes, and
// the mutex lets the harness read a prefix while late spans still land.
type spanBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *spanBuf) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(b)
}

func (s *spanBuf) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Len()
}

func (s *spanBuf) prefix(n int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()[:n]...)
}

// histMean is the mean of a histogram's observations over the pass.
func (p *pass) histMean(name string) float64 {
	h0, h1 := p.m0.Histograms[name], p.m1.Histograms[name]
	return ratio(h1.Sum-h0.Sum, float64(h1.Count-h0.Count))
}
