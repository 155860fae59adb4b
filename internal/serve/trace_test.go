package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// lockedBuffer serializes writes so the slog JSON handler and the test's
// reader never race (run under -race).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestConcurrentTracing is the end-to-end observability gate: 64 concurrent
// predicts over 4 adapters through real HTTP with tracing, metrics, and the
// access log all wired. Every 2xx predict must produce exactly one
// well-formed access-log line carrying its trace ID, every serve.batch span
// must link at least one request span, and both output streams must be
// valid line-JSON (no interleaving corruption).
func TestConcurrentTracing(t *testing.T) {
	traceBuf := &lockedBuffer{}
	logBuf := &lockedBuffer{}
	tracer := obs.NewTracer(traceBuf)
	rec := obs.NewRecorder(obs.NewRegistry(), tracer)
	opts := Options{
		MaxBatch:  8,
		MaxWait:   time.Millisecond,
		Rec:       rec,
		AccessLog: slog.New(slog.NewJSONHandler(logBuf, nil)),
	}
	reg := NewRegistry(newStubTransferer(time.Millisecond).transfer, opts)
	srv := httptest.NewServer(NewServer(reg, opts))
	defer srv.Close()

	// 64 concurrent predicts, request i under the i-th trace of a seed-7
	// ID stream, each checked for its answer and its traceparent echo.
	keys := []string{"EM/A", "EM/B", "ED/C", "ED/D"}
	items := make([]PredictRequest, 64)
	ids := obs.NewIDSource(7)
	var wg sync.WaitGroup
	for i := range items {
		key, id := keys[i%len(keys)], fmt.Sprint(i)
		items[i] = PredictRequest{Adapter: key, Instance: WireInstance{ID: id, Candidates: []string{"yes", "no"}}}
		sent := obs.SpanContext{Trace: ids.At(uint64(i + 1)), Span: ids.SpanIDAt(uint64(i + 1))}
		wg.Add(1)
		go func(req PredictRequest) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", bytes.NewReader(body))
			hreq.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(sent))
			resp, err := srv.Client().Do(hreq)
			if err != nil {
				t.Errorf("predict %s: %v", req.Instance.ID, err)
				return
			}
			defer resp.Body.Close()
			var pr PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("predict %s: status %d, err %v", req.Instance.ID, resp.StatusCode, err)
				return
			}
			if want := req.Adapter + ":" + req.Instance.ID; pr.Answer != want {
				t.Errorf("predict %s = %q, want %q", req.Instance.ID, pr.Answer, want)
			}
			if echo, err := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); err != nil || echo.Trace != sent.Trace {
				t.Errorf("predict %s: traceparent not echoed", req.Instance.ID)
			}
		}(items[i])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	srv.Close() // drain handlers so every request span and log line has flushed

	// A batch span ends moments *after* its last member's response is
	// delivered, so give the batcher goroutines a beat to flush before
	// freezing the stream. A mid-write read fails ReadTrace and just retries.
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
		ok := err == nil
		var nreq, nbat int
		for _, r := range recs {
			switch r.Name {
			case "serve.request":
				nreq++
			case "serve.batch":
				nbat++
			}
		}
		if ok && nreq == len(items) && nbat > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never settled: err=%v requests=%d batches=%d", err, nreq, nbat)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	// Access log: exactly one valid JSON line per request, each with a
	// non-empty trace ID, and the set of trace IDs matches what the load
	// generator sent.
	sentTraces := map[string]bool{}
	for i := range items {
		sentTraces[ids.At(uint64(i+1)).String()] = true
	}
	var logLines int
	seenTraces := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var entry struct {
			Msg    string `json:"msg"`
			Trace  string `json:"trace"`
			Route  string `json:"route"`
			Status int    `json:"status"`
			Batch  int    `json:"batch"`
			Key    string `json:"key"`
		}
		if err := json.Unmarshal(line, &entry); err != nil {
			t.Fatalf("corrupt access-log line %q: %v", line, err)
		}
		logLines++
		if entry.Msg != "request" || entry.Route != "predict" || entry.Status != 200 {
			t.Fatalf("unexpected access-log entry: %s", line)
		}
		if entry.Trace == "" || !sentTraces[entry.Trace] {
			t.Fatalf("access-log trace %q was never sent", entry.Trace)
		}
		if seenTraces[entry.Trace] {
			t.Fatalf("trace %s logged twice", entry.Trace)
		}
		seenTraces[entry.Trace] = true
		if entry.Batch < 1 {
			t.Fatalf("access-log entry without batch size: %s", line)
		}
		if entry.Key == "" {
			t.Fatalf("access-log entry without adapter key: %s", line)
		}
	}
	if logLines != len(items) {
		t.Fatalf("got %d access-log lines, want exactly %d", logLines, len(items))
	}

	// Trace stream: parses whole (no interleaving corruption), every
	// serve.batch span links >= 1 request span, and every request span is
	// in the trace the client minted for it.
	recs, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatalf("trace stream corrupt: %v", err)
	}
	var requests, batches int
	for _, r := range recs {
		switch r.Name {
		case "serve.request":
			requests++
			if !sentTraces[r.Trace] {
				t.Fatalf("serve.request span in unexpected trace %q", r.Trace)
			}
			if !r.Remote {
				t.Fatalf("serve.request span not marked remote-parented: %+v", r)
			}
		case "serve.batch":
			batches++
			if len(r.Links) == 0 {
				t.Fatalf("serve.batch span with no request links: %+v", r)
			}
			for _, l := range r.Links {
				if !sentTraces[l.Trace] {
					t.Fatalf("serve.batch links unknown trace %q", l.Trace)
				}
			}
		}
	}
	if requests != len(items) {
		t.Fatalf("got %d serve.request spans, want %d", requests, len(items))
	}
	if batches == 0 {
		t.Fatal("no serve.batch spans recorded")
	}

	// The registry metrics side: inflight settled back to zero and the
	// latency histogram stamped trace-ID exemplars.
	snap := rec.Metrics.Snapshot()
	if v := snap.Gauges["serve.inflight"]; v != 0 {
		t.Fatalf("inflight gauge = %v after drain", v)
	}
	h := snap.Histograms["serve.request_us"]
	var stamped bool
	for _, ex := range h.Exemplars {
		if ex != "" {
			stamped = true
			if !sentTraces[ex] {
				t.Fatalf("exemplar %q is not a sent trace", ex)
			}
		}
	}
	if !stamped {
		t.Fatal("latency histogram carries no trace exemplars")
	}
}

// TestTraceparentEchoWithoutTracer pins the degraded mode: a server with no
// tracer still echoes the caller's traceparent verbatim, so propagation
// stays observable even when tracing is off.
func TestTraceparentEchoWithoutTracer(t *testing.T) {
	srv, _ := newTestServer(t, newStubTransferer(0), Options{})
	body, _ := json.Marshal(PredictRequest{
		Adapter:  "EM/A",
		Instance: WireInstance{ID: "1", Candidates: []string{"y", "n"}},
	})
	hreq, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	hreq.Header.Set(obs.TraceparentHeader, tp)
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceparentHeader); got != tp {
		t.Fatalf("echo = %q, want the inbound header verbatim", got)
	}
}
