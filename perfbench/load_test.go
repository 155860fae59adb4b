package main

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopCountsStalledRequestsAsUnfinished(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	c := newClient(srv.URL, 2, 1)
	defer c.close()

	sched := poissonSchedule(rand.New(rand.NewSource(1)), 200, 300*time.Millisecond)
	if len(sched) < 20 {
		t.Fatalf("schedule of %d requests", len(sched))
	}
	grace := 100 * time.Millisecond
	start := time.Now()
	res := openLoop(context.Background(), sched, grace, func(ctx context.Context, _ int) (string, string, error) {
		return c.predict(ctx, []byte(`{}`))
	})
	phase := sched[len(sched)-1] + grace
	if took := time.Since(start); took > phase+time.Second {
		t.Errorf("a stalled server held the phase for %v; it must end %v after the last due time", took, grace)
	}
	for i, r := range res.recs {
		if !errors.Is(r.err, errUnfinished) {
			t.Fatalf("request %d: err %v, want it counted unfinished", i, r.err)
		}
	}
	// Timed from its due time, the first request waited out the whole phase.
	if lat := res.recs[0].lat; lat < phase-sched[0]-10*time.Millisecond {
		t.Errorf("first request latency %v, want about %v", lat, phase-sched[0])
	}
	// Two stalled connections must not hold the generator back.
	if late := quantile(res.lateness, 0.99); late > 20 {
		t.Errorf("generator p99 lateness %.1fms against a stalled server", late)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		w.Write([]byte(`{"answer":"yes"}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, 1)
	defer c.close()

	// Over one connection, requests due every 5ms queue behind the stalled
	// first one: each is late by the stall, not by its own service time.
	var sched []time.Duration
	for i := 0; i < 8; i++ {
		sched = append(sched, time.Duration(i)*5*time.Millisecond)
	}
	res := openLoop(context.Background(), sched, time.Second, func(ctx context.Context, _ int) (string, string, error) {
		return c.predict(ctx, []byte(`{}`))
	})
	for i, r := range res.recs {
		if r.err != nil || r.ans != "yes" {
			t.Fatalf("request %d: %q, %v", i, r.ans, r.err)
		}
		if want := 60*time.Millisecond - sched[i] - 5*time.Millisecond; r.lat < want {
			t.Errorf("request %d: latency %v from its due time, want at least %v", i, r.lat, want)
		}
	}
}
