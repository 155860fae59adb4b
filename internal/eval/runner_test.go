package eval

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// --- memo concurrency ---------------------------------------------------------

func TestMemoPanicDoesNotWedgeLaterCalls(t *testing.T) {
	z := &memo[interface{}]{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("builder panic must propagate to the memo caller")
			}
		}()
		z.get("k", func() interface{} { panic("boom") })
	}()
	// The in-flight marker must have been cleared: a retry on another
	// goroutine must run its builder instead of waiting forever.
	done := make(chan interface{}, 1)
	go func() { done <- z.get("k", func() interface{} { return 42 }) }()
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("retry returned %v, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("memo wedged after a builder panic (leaked in-flight marker)")
	}
}

func TestMemoPanicWakesConcurrentWaiter(t *testing.T) {
	z := &memo[interface{}]{}
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		z.get("k", func() interface{} {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	done := make(chan interface{}, 1)
	go func() { done <- z.get("k", func() interface{} { return "rebuilt" }) }()
	// Let the second goroutine reach the wait on the in-flight marker, then
	// panic the first builder; the broadcast must wake the waiter, which
	// retries the build itself.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case v := <-done:
		if v != "rebuilt" {
			t.Fatalf("waiter got %v, want rebuilt", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged after the in-flight builder panicked")
	}
}

func TestMemoBuildsOnceUnderContention(t *testing.T) {
	z := &memo[interface{}]{}
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := z.get("k", func() interface{} {
				builds.Add(1)
				time.Sleep(5 * time.Millisecond)
				return "v"
			})
			if v != "v" {
				t.Errorf("memo returned %v", v)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times under contention, want 1", n)
	}
}

// --- runCells ------------------------------------------------------------------

func TestRunCellsPreservesDeclarationOrder(t *testing.T) {
	z := NewZoo(1, 0.5)
	z.Workers = 4
	var jobs []cellJob[int]
	for i := 0; i < 32; i++ {
		jobs = append(jobs, cellJob[int]{
			Label: "j",
			Run: func(_ *obs.Recorder) int {
				// Stagger finish times so a schedule-dependent assembly
				// would scramble the slice.
				time.Sleep(time.Duration(i%5) * time.Millisecond)
				return i
			},
		})
	}
	out := runCells(z, jobs)
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d: results not in declaration order", i, v)
		}
	}
}

func TestRunCellsSerialPathUsesCallingGoroutine(t *testing.T) {
	z := NewZoo(1, 0.5) // Workers zero value: serial
	ran := 0
	out := runCells(z, []cellJob[int]{{Label: "a", Run: func(_ *obs.Recorder) int { ran++; return 7 }}})
	if ran != 1 || out[0] != 7 {
		t.Fatalf("serial path ran=%d out=%v", ran, out)
	}
}

func TestRunCellsPropagatesWorkerPanic(t *testing.T) {
	z := NewZoo(1, 0.5)
	z.Workers = 2
	jobs := []cellJob[int]{
		{Label: "ok", Run: func(_ *obs.Recorder) int { return 1 }},
		{Label: "bad", Run: func(_ *obs.Recorder) int { panic("cell exploded") }},
		{Label: "ok2", Run: func(_ *obs.Recorder) int { return 3 }},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("runCells swallowed a worker panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "cell exploded") {
			t.Fatalf("panic %v does not carry the cell's message", r)
		}
	}()
	runCells(z, jobs)
}

func TestRunCellsRecordsWorkerTelemetry(t *testing.T) {
	z := NewZoo(1, 0.5)
	z.Workers = 3
	var buf strings.Builder
	tracer := obs.NewTracer(&buf)
	reg := obs.NewRegistry()
	z.Rec = obs.NewRecorder(reg, tracer)
	jobs := make([]cellJob[int], 6)
	for i := range jobs {
		jobs[i] = cellJob[int]{Label: "cell", Run: func(_ *obs.Recorder) int { return i }}
	}
	runCells(z, jobs)
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	workers, cells := 0, 0
	workerIDs := map[uint64]bool{}
	for _, r := range recs {
		switch r.Name {
		case "eval.worker":
			workers++
			workerIDs[r.Span] = true
		case "eval.cell":
			cells++
		}
	}
	if workers != 3 {
		t.Fatalf("trace has %d eval.worker spans, want 3", workers)
	}
	if cells != len(jobs) {
		t.Fatalf("trace has %d eval.cell spans, want %d", cells, len(jobs))
	}
	// Every cell span must be parented to a worker span so obs trace
	// self-time accounting attributes cell work to its worker.
	for _, r := range recs {
		if r.Name == "eval.cell" && !workerIDs[r.Parent] {
			t.Fatalf("eval.cell span %d has non-worker parent %d", r.Span, r.Parent)
		}
	}
	snap := reg.Snapshot()
	if v, ok := snap.Gauges["eval.workers"]; !ok || v != 3 {
		t.Fatalf("eval.workers gauge = %v (present=%v), want 3", v, ok)
	}
	if h, ok := snap.Histograms["eval.cell_queue_us"]; !ok || h.Count != int64(len(jobs)) {
		t.Fatalf("eval.cell_queue_us count = %d (present=%v), want %d", h.Count, ok, len(jobs))
	}
}

// TestTable6SerialParallelDeterminism renders a small Table VI grid at one
// worker and at four and requires byte-identical output — the in-process
// version of the check.sh tier-2 gate. The shared test zoo keeps artifact
// builds amortized across the eval test suite.
func TestTable6SerialParallelDeterminism(t *testing.T) {
	z := zooForTest()
	keys := []string{"ED/Flights", "EM/Abt-Buy"}
	prev := z.Workers
	defer func() { z.Workers = prev }()

	z.Workers = 1
	serial := runTable6On(z, 1, keys).Render()
	z.Workers = 4
	parallel := runTable6On(z, 1, keys).Render()

	if serial != parallel {
		t.Fatalf("parallel table6 differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}
