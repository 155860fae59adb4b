package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// Phases of a workload's timed window.
const (
	phaseOpen   = "open"   // open loop at a fixed offered rate
	phaseClosed = "closed" // closed loop over nproc connections
	phaseCold   = "cold"   // concurrent first predicts on a cold key
	phaseJob    = "job"    // rows of a bulk job
)

// outcome is what one pass of a workload observed. recs index the
// workload's pool. A run reports medians over repeated slices of its
// window, so that a short stall of the machine moves one slice, not the
// result: lat holds the latency samples (ms) of each slice, and walls the
// wall time of each throughput slice, which the records of tputPhase name.
type outcome struct {
	recs      []record
	lat       [][]float64
	latWhat   string
	tputPhase string
	walls     []time.Duration
	lateness  []float64
	extraFail int // failed operations that answer nothing (an eviction)

	coldKeys  int // cold episodes the registries should each pay one Transfer for
	transfers int64
	planMs    []float64
	router    *cluster.RouterStats
	rowFails  int64
	retries   int64
}

func (o *outcome) add(phase string, rs ...record) {
	for _, r := range rs {
		r.phase = phase
		o.recs = append(o.recs, r)
	}
}

// workload is one traffic mix: which adapters it serves (nil: every
// downstream key) and how one pass sets up its stack and drives its timed
// window.
type workload struct {
	keys []string
	run  func(ctx context.Context, p *pass, pool []item) (*outcome, error)
}

var workloads = map[string]workload{
	"cold-start": {run: runColdStart},
	"warm-serve": {keys: warmKeys, run: runWarmServe},
	"bulk-job":   {keys: []string{bulkKey}, run: runBulkJob},
	"routed":     {keys: warmKeys, run: runRouted},
}

// warmKeys span four task families with different candidate-set sizes;
// the bulk job uses the entity-matching key, the task bulk matching jobs
// run in practice.
var (
	warmKeys = []string{"ED/Beer", "DI/Flipkart", "EM/Walmart-Amazon", "AVE/OA-mine"}
	bulkKey  = "EM/Walmart-Amazon"
)

// stream is an endless request order over a pool: seeded permutations of
// the pool back to back, so every instance is sent once before any repeats.
type stream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int
	order []int
}

func newStream(seed int64, n int) *stream { return &stream{rng: rand.New(rand.NewSource(seed)), n: n} }

func (s *stream) at(pos int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.order) <= pos {
		s.order = append(s.order, s.rng.Perm(s.n)...)
	}
	return s.order[pos]
}

// runColdStart visits every key in a seeded order, round after round.
// Each visit sends nproc concurrent first predicts, which the registry
// coalesces onto one Transfer, then evicts the key over HTTP. Keys differ
// in Transfer cost, so the window holds whole rounds only, each a slice:
// a round starts while the previous round's length still fits in the
// window with a quarter to spare, and the first round always runs.
func runColdStart(ctx context.Context, p *pass, pool []item) (*outcome, error) {
	reg := p.registry()
	url, err := p.listen(serve.NewServer(p.resolver(reg, 0), p.opts()))
	if err != nil {
		return nil, err
	}
	c := newClient(url, p.b.nproc, p.b.seed)
	defer c.close()
	keys, byKey := groupByKey(pool)
	p.markReady()

	rng := rand.New(rand.NewSource(p.b.seed))
	o := &outcome{latWhat: "cold first predicts", tputPhase: phaseCold}
	p.startWindow()
	limit := p.winStart.Add(p.b.seconds * 5 / 4)
	var round time.Duration
	for n := 0; n == 0 || time.Now().Add(round).Before(limit); n++ {
		t0 := time.Now()
		var lat []float64
		for _, k := range rng.Perm(len(keys)) {
			key := keys[k]
			recs := make([]record, p.b.nproc)
			var wg sync.WaitGroup
			for j := range recs {
				idx := byKey[key][rng.Intn(len(byKey[key]))]
				wg.Add(1)
				go func(j, idx int) {
					defer wg.Done()
					t0 := time.Now()
					ans, trace, err := c.predict(ctx, pool[idx].body)
					d := time.Since(t0)
					recs[j] = record{item: idx, slice: n, ans: ans, trace: trace, err: err, lat: d, rt: d}
				}(j, idx)
			}
			wg.Wait()
			for _, r := range recs {
				lat = append(lat, ms(r.lat))
			}
			o.add(phaseCold, recs...)
			o.coldKeys++
			if evicted, err := c.evict(ctx, key); err != nil || !evicted {
				o.extraFail++
			}
		}
		round = time.Since(t0)
		o.lat = append(o.lat, lat)
		o.walls = append(o.walls, round)
	}
	p.endWindow()
	o.transfers = sumTransfers(reg.Snapshot())
	return o, nil
}

func sumTransfers(snap []serve.KeyStats) int64 {
	var n int64
	for _, st := range snap {
		n += st.Transfers
	}
	return n
}

// runWarmServe serves four pre-warmed adapters from one registry.
func runWarmServe(ctx context.Context, p *pass, pool []item) (*outcome, error) {
	reg := p.registry()
	res := p.resolver(reg, 0)
	url, err := p.listen(serve.NewServer(res, p.opts()))
	if err != nil {
		return nil, err
	}
	keys := warmKeys
	for _, key := range keys {
		if _, err := res.Warm(ctx, key); err != nil {
			return nil, fmt.Errorf("warm %s: %w", key, err)
		}
	}
	p.markReady()
	o, err := serveWindow(ctx, p, url, pool)
	if err != nil {
		return nil, err
	}
	o.coldKeys = len(keys)
	o.transfers = sumTransfers(reg.Snapshot())
	return o, nil
}

// runRouted serves the warm-serve stream through a default cluster.Router
// in front of three in-process backends that share one zoo.
func runRouted(ctx context.Context, p *pass, pool []item) (*outcome, error) {
	var (
		regs []*serve.Registry
		urls []string
	)
	for i := 0; i < 3; i++ {
		reg := p.registry()
		url, err := p.listen(serve.NewServer(p.resolver(reg, i+1), p.opts()))
		if err != nil {
			return nil, err
		}
		regs = append(regs, reg)
		urls = append(urls, url)
	}
	rt, err := cluster.New(cluster.Options{Backends: urls, Seed: p.b.seed, Rec: p.rec})
	if err != nil {
		return nil, err
	}
	p.onClose(rt.Close)
	url, err := p.listen(serve.NewServer(p.resolver(rt, 0), p.opts()))
	if err != nil {
		return nil, err
	}
	for _, key := range warmKeys {
		if _, err := rt.Warm(ctx, key); err != nil {
			return nil, fmt.Errorf("warm %s: %w", key, err)
		}
	}
	p.markReady()
	before := rt.Stats()
	o, err := serveWindow(ctx, p, url, pool)
	if err != nil {
		return nil, err
	}
	after := rt.Stats()
	d := cluster.RouterStats{
		Requests:  after.Requests - before.Requests,
		Hedges:    after.Hedges - before.Hedges,
		Failovers: after.Failovers - before.Failovers,
		Ejections: after.Ejections - before.Ejections,
	}
	for i, b := range after.Backends {
		d.Backends = append(d.Backends, cluster.BackendStat{URL: b.URL, Requests: b.Requests - before.Backends[i].Requests})
	}
	o.router = &d
	for _, reg := range regs {
		o.transfers += sumTransfers(reg.Snapshot())
	}
	// The router warms each key on its first WarmReplicas owners, which by
	// default is every owner of the key.
	o.coldKeys = 0
	for _, key := range warmKeys {
		o.coldKeys += len(rt.Owners(key))
	}
	return o, nil
}

// serveWindow is the warm-serve and routed window: an open-loop phase at
// the documented offered rate for two thirds of the window (latency), then
// a closed loop over nproc connections for the rest (throughput). Each
// phase is cut into serveSlices slices by due or completion time.
func serveWindow(ctx context.Context, p *pass, url string, pool []item) (*outcome, error) {
	const serveSlices = 4
	b := p.b
	c := newClient(url, b.nproc, b.seed)
	defer c.close()
	openDur := b.seconds * 2 / 3
	rng := rand.New(rand.NewSource(b.seed))
	sched := poissonSchedule(rng, b.doc.OpenLoopRPS, openDur)
	st := newStream(b.seed+1, len(pool))
	send := func(ctx context.Context, pos int) (string, string, error) {
		return c.predict(ctx, pool[st.at(pos)].body)
	}
	o := &outcome{latWhat: "open-loop predicts, from due time", tputPhase: phaseClosed}
	p.startWindow()
	open := openLoop(ctx, sched, time.Duration(b.doc.OpenLoopGraceS*float64(time.Second)), send)
	var mu sync.Mutex
	next := len(sched)
	closedStart := time.Now()
	closed, wall := closedLoop(ctx, b.nproc, b.seconds-openDur, func() int {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next - 1
	}, send)
	p.endWindow()
	o.lat = make([][]float64, serveSlices)
	for i, r := range open.recs {
		k := slice(sched[i], openDur, serveSlices)
		o.lat[k] = append(o.lat[k], ms(r.lat))
		r.item = st.at(r.item)
		o.add(phaseOpen, r)
	}
	for _, r := range closed {
		r.item = st.at(r.item)
		r.slice = slice(r.done.Sub(closedStart), wall, serveSlices)
		o.add(phaseClosed, r)
	}
	for k := 0; k < serveSlices; k++ {
		o.walls = append(o.walls, wall/serveSlices)
	}
	o.lateness = open.lateness
	return o, nil
}

// slice places offset t of a phase of length d into one of n equal slices.
func slice(t, d time.Duration, n int) int {
	k := int(int64(t) * int64(n) / int64(d))
	if k < 0 {
		return 0
	}
	if k >= n {
		return n - 1
	}
	return k
}

// runBulkJob runs one bulk job after another for the window. Each job
// reads a dpgen JSON input of bulkRows rows cycled from the adapter's test
// split in a seeded order, in many small shards, under the engine's
// default limits against an in-process registry.
func runBulkJob(ctx context.Context, p *pass, pool []item) (*outcome, error) {
	const (
		bulkRows  = 1024
		shardRows = 32
	)
	reg := p.registry()
	res := p.resolver(reg, 0)
	if _, err := res.Warm(ctx, bulkKey); err != nil {
		return nil, fmt.Errorf("warm %s: %w", bulkKey, err)
	}
	dir, err := os.MkdirTemp(p.b.workDir, "bulk-")
	if err != nil {
		return nil, err
	}
	p.onClose(func() { os.RemoveAll(dir) })
	st := newStream(p.b.seed, len(pool))
	rowItem := make([]int, bulkRows)
	task, name, _ := strings.Cut(bulkKey, "/")
	ds := &data.Dataset{Name: name, Task: task}
	for j := range rowItem {
		rowItem[j] = st.at(j)
		in := pool[rowItem[j]].in.Clone()
		in.ID = fmt.Sprintf("row%05d", j)
		ds.Test = append(ds.Test, in)
	}
	input := filepath.Join(dir, "input.json")
	f, err := os.Create(input)
	if err != nil {
		return nil, err
	}
	if err := dataio.EncodeJSON(ds, "", f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	eng := &jobs.Engine{Res: res, Rec: p.rec}
	p.markReady()

	// Every job is a slice: throughput is the median job's rows per second.
	o := &outcome{latWhat: "bulk job wall (Plan + Run)", tputPhase: phaseJob}
	var walls []float64
	p.startWindow()
	deadline := p.winStart.Add(p.b.seconds)
	for n := 0; time.Now().Before(deadline); n++ {
		jobDir := filepath.Join(dir, fmt.Sprintf("job%04d", n))
		eng.CheckpointDir = filepath.Join(jobDir, "ckpt")
		sp := &jobs.Spec{
			Adapter: bulkKey,
			Input:   jobs.Input{Path: input},
			Output:  jobs.Output{Path: filepath.Join(jobDir, "out.csv")},
			Shards:  bulkRows / shardRows,
		}
		if err := sp.Normalize(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		plan, err := eng.Plan(sp)
		if err != nil {
			return nil, err
		}
		planned := time.Now()
		r, err := eng.Run(ctx, plan, nil)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", n, err)
		}
		wall := time.Since(t0)
		o.walls = append(o.walls, wall)
		walls = append(walls, ms(wall))
		o.planMs = append(o.planMs, ms(planned.Sub(t0)))
		o.rowFails += int64(r.RowFailures)
		o.retries += r.Retries
		answers, err := readOutput(sp.Output.Path)
		if err != nil {
			return nil, err
		}
		if len(answers) != bulkRows {
			o.extraFail += bulkRows - len(answers)
		}
		for j, a := range answers {
			rec := record{item: -1, slice: n, ans: a.answer}
			if j < bulkRows && a.id == fmt.Sprintf("row%05d", j) {
				rec.item = rowItem[j]
			} else {
				rec.err = fmt.Errorf("output row %d is %q", j, a.id)
			}
			o.add(phaseJob, rec)
		}
		if err := os.RemoveAll(jobDir); err != nil {
			return nil, err
		}
	}
	p.endWindow()
	o.lat = [][]float64{walls}
	o.coldKeys = 1
	o.transfers = sumTransfers(reg.Snapshot())
	return o, nil
}

type outRow struct{ id, answer string }

func readOutput(path string) ([]outRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("read %s: no header", path)
	}
	out := make([]outRow, 0, len(rows)-1)
	for _, r := range rows[1:] {
		out = append(out, outRow{id: r[0], answer: r[1]})
	}
	return out, nil
}
