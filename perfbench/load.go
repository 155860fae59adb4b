package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

const requestTimeout = 30 * time.Second

// client speaks the serve HTTP API over at most conns connections. Every
// predict carries a traceparent with a fresh trace id, traced pass or not,
// so both passes send identical requests.
type client struct {
	hc   *http.Client
	base string
	ids  *obs.IDSource
	n    atomic.Uint64
}

func newClient(base string, conns int, seed int64) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	// A request that hangs fails after requestTimeout rather than holding
	// the run past its time limit.
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base, ids: obs.NewIDSource(seed)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// predict posts one pre-encoded PredictRequest body and returns the answer
// and the trace id the request was sent under.
func (c *client) predict(ctx context.Context, body []byte) (string, string, error) {
	n := c.n.Add(1)
	sc := obs.SpanContext{Trace: c.ids.At(n), Span: c.ids.SpanIDAt(n)}
	trace := sc.Trace.String()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return "", trace, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(sc))
	payload, err := c.do(req)
	if err != nil {
		return "", trace, err
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(payload, &pr); err != nil {
		return "", trace, fmt.Errorf("predict: bad response body: %w", err)
	}
	return pr.Answer, trace, nil
}

// evict drops key's resident adapter through DELETE /v1/adapters/{key}.
func (c *client) evict(ctx context.Context, key string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/adapters/"+key, nil)
	if err != nil {
		return false, err
	}
	payload, err := c.do(req)
	if err != nil {
		return false, err
	}
	var er serve.EvictResponse
	if err := json.Unmarshal(payload, &er); err != nil {
		return false, fmt.Errorf("evict: bad response body: %w", err)
	}
	return er.Evicted, nil
}

func (c *client) do(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(payload))
	}
	return payload, nil
}

// sendFunc sends request i of a stream and returns the served answer and
// the trace id it went out under.
type sendFunc func(ctx context.Context, i int) (ans, trace string, err error)

// record is one request's outcome. lat runs from the request's due time
// (open loop) or send time (closed loop) to its response; rt is the
// client round trip alone.
type record struct {
	item  int
	phase string
	slice int // the throughput slice the record counts in
	ans   string
	trace string
	err   error
	lat   time.Duration
	rt    time.Duration
	done  time.Time
}

var errUnfinished = errors.New("unfinished at phase end")

// poissonSchedule draws a seeded Poisson arrival schedule at rate requests
// per second over dur: independent users, the open-loop shape.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// openResult is an open-loop phase: one record per scheduled request, in
// schedule order, and how late the generator sent each (ms).
type openResult struct {
	recs     []record
	lateness []float64
}

// openLoop sends request i at start+sched[i] whatever the state of earlier
// requests, and times it from that due time, so a stall also charges the
// requests queued behind it. The phase ends grace after the last due
// time: requests still running then are cancelled and recorded with
// errUnfinished.
func openLoop(ctx context.Context, sched []time.Duration, grace time.Duration, send sendFunc) openResult {
	res := openResult{recs: make([]record, len(sched)), lateness: make([]float64, len(sched))}
	if len(sched) == 0 {
		return res
	}
	start := time.Now()
	phaseEnd := start.Add(sched[len(sched)-1] + grace)
	pctx, cancel := context.WithDeadline(ctx, phaseEnd)
	defer cancel()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var wg sync.WaitGroup
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-pctx.Done():
			}
		}
		res.lateness[i] = ms(time.Since(due))
		if pctx.Err() != nil {
			res.recs[i] = record{item: i, err: errUnfinished, lat: time.Since(due)}
			continue
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			ans, trace, err := send(pctx, i)
			now := time.Now()
			if now.After(phaseEnd) {
				err = errUnfinished
			}
			res.recs[i] = record{item: i, ans: ans, trace: trace, err: err, lat: now.Sub(due), rt: now.Sub(sent), done: now}
		}(i, due)
	}
	wg.Wait()
	return res
}

// closedLoop keeps workers requests in flight for dur: each worker sends
// its next request only when the previous one has answered. Requests in
// flight at the deadline finish and count.
func closedLoop(ctx context.Context, workers int, dur time.Duration, next func() int, send sendFunc) ([]record, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	var (
		mu   sync.Mutex
		recs []record
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := next()
				t0 := time.Now()
				ans, trace, err := send(ctx, i)
				now := time.Now()
				d := now.Sub(t0)
				mine = append(mine, record{item: i, ans: ans, trace: trace, err: err, lat: d, rt: d, done: now})
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}
