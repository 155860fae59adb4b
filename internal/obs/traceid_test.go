package obs

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestIDSourceDeterminism(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	for i := 0; i < 10; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("mint %d diverged: %s vs %s", i, x, y)
		}
	}
	if NewIDSource(42).At(3) != a.At(3) {
		t.Fatal("At is not mint-order independent")
	}
	if NewIDSource(1).At(1) == NewIDSource(2).At(1) {
		t.Fatal("different seeds minted the same trace id")
	}
	if id := NewIDSource(7).Next(); id.IsZero() || len(id.String()) != 32 {
		t.Fatalf("bad trace id %q", id.String())
	}
	if NewIDSource(7).SpanIDAt(1) == 0 {
		t.Fatal("SpanIDAt minted zero")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewIDSource(9).At(1), Span: 0xDEADBEEF}
	tp := FormatTraceparent(sc)
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q not W3C-shaped", tp)
	}
	got, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("round trip = %+v, want %+v", got, sc)
	}
	if FormatTraceparent(SpanContext{}) != "" {
		t.Fatal("zero context should format to empty")
	}
	for _, bad := range []string{
		"",
		"00-abc-def-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",
		// A scanf-style parse took these as span 0x1234567890123 and
		// 0xb7ad6b71692033, and never looked at the flags.
		"00-0af7651916cd43dd8448eb211c80319c-   1234567890123-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033_1-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-1",
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted garbage", bad)
		}
	}
	// Future version with extra fields parses (per spec).
	if _, err := ParseTraceparent("42-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); err != nil {
		t.Errorf("future traceparent version rejected: %v", err)
	}
}

func TestSpanTracePropagation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SeedTraceIDs(7)

	root := tr.StartSpan("root")
	child := root.StartChild("child")
	child.End()
	other := tr.StartSpan("other")
	other.End()
	root.End()

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["root"].Trace == "" || byName["root"].Trace != byName["child"].Trace {
		t.Fatalf("child trace %q != root trace %q", byName["child"].Trace, byName["root"].Trace)
	}
	if byName["other"].Trace == byName["root"].Trace {
		t.Fatal("separate roots share a trace id")
	}

	// Same seed, same mint order → same ids.
	var buf2 bytes.Buffer
	tr2 := NewTracer(&buf2)
	tr2.SeedTraceIDs(7)
	r2 := tr2.StartSpan("root")
	r2.StartChild("child").End()
	tr2.StartSpan("other").End()
	r2.End()
	recs2, _ := ReadTrace(&buf2)
	for i := range recs {
		if recs[i].Trace != recs2[i].Trace {
			t.Fatalf("seeded trace ids not reproducible: %q vs %q", recs[i].Trace, recs2[i].Trace)
		}
	}
}

func TestStartSpanInAdoptsRemoteTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	remote := SpanContext{Trace: NewIDSource(3).At(1), Span: 0xABCD}

	rec := NewRecorder(NewRegistry(), tr)
	reqRec, span := rec.StartSpanIn("serve.request", remote)
	if got := span.Context().Trace; got != remote.Trace {
		t.Fatalf("span adopted trace %s, want %s", got, remote.Trace)
	}
	reqRec.Event("decision", "k", 1)
	span.End()

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want event+span", len(recs))
	}
	evt, sp := recs[0], recs[1]
	if sp.Parent != 0xABCD || sp.Trace != remote.Trace.String() {
		t.Fatalf("span record = %+v", sp)
	}
	if evt.Trace != remote.Trace.String() || evt.Parent != sp.Span {
		t.Fatalf("event did not inherit the trace: %+v", evt)
	}
}

func TestSpanLinksSerialized(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	a := tr.StartSpan("request")
	batch := tr.StartSpan("batch")
	batch.Link(a.Context())
	batch.Link(SpanContext{}) // dropped
	batch.End()
	a.End()

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0].Links) != 1 {
		t.Fatalf("batch links = %+v, want exactly the request link", recs[0].Links)
	}
	l := recs[0].Links[0]
	if l.Span != a.Context().Span || l.Trace != a.Context().Trace.String() {
		t.Fatalf("link %+v does not identify the request span %+v", l, a.Context())
	}
}

// TestSpanCrossGoroutineAnnotation is the race gate for the serve path
// shape: one goroutine owns the span (and may End it at any moment, as a
// handler whose client vanished does) while another annotates and links
// it. Run under -race.
func TestSpanCrossGoroutineAnnotation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for i := 0; i < 200; i++ {
		s := tr.StartSpan("req")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.SetAttr("queue_us", int64(5))
			s.Link(SpanContext{Trace: NewIDSource(1).At(1), Span: 9})
		}()
		go func() {
			defer wg.Done()
			s.SetAttr("status", 200)
			s.End()
		}()
		wg.Wait()
		s.End() // idempotent: no duplicate record
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("got %d records, want 200 (End must be idempotent)", len(recs))
	}
}

func TestContextSpanPlumbing(t *testing.T) {
	if s := SpanFromContext(context.Background()); s != nil {
		t.Fatal("empty context returned a span")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span should not be stored")
	}
	tr := NewTracer(&bytes.Buffer{})
	s := tr.StartSpan("op")
	ctx = ContextWithSpan(context.Background(), s)
	if got := SpanFromContext(ctx); got != s {
		t.Fatalf("got %v, want the stored span", got)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := newHistogram([]float64{10, 100})
	h.ObserveExemplar(5, "trace-a")
	h.ObserveExemplar(50, "trace-b")
	h.ObserveExemplar(7, "trace-c") // overwrites bucket 0
	h.ObserveExemplar(5000, "")     // counted, no exemplar
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d", snap.Count)
	}
	want := []string{"trace-c", "trace-b", ""}
	if len(snap.Exemplars) != 3 {
		t.Fatalf("exemplars = %v", snap.Exemplars)
	}
	for i, w := range want {
		if snap.Exemplars[i] != w {
			t.Fatalf("exemplars = %v, want %v", snap.Exemplars, want)
		}
	}
	// Without any stamped exemplar the field stays absent.
	if s := newHistogram(nil); s.Snapshot().Exemplars != nil {
		t.Fatal("empty histogram grew exemplars")
	}
}

// TestSeededTracerAvoidsClientStream pins the domain separation between a
// seeded tracer's local roots and a client ID source with the same seed: a
// server and a load generator sharing one -seed must never collide on trace
// IDs, or locally-rooted batch/transfer spans would graft themselves into
// some request's trace.
func TestSeededTracerAvoidsClientStream(t *testing.T) {
	client := NewIDSource(7)
	clientIDs := map[string]bool{}
	for n := uint64(1); n <= 512; n++ {
		clientIDs[client.At(n).String()] = true
	}
	tr := NewTracer(io.Discard)
	tr.SeedTraceIDs(7)
	for i := 0; i < 512; i++ {
		s := tr.StartSpan("local.root")
		if id := s.Context().Trace.String(); clientIDs[id] {
			t.Fatalf("tracer root %d minted trace %s, which a client with the same seed also mints", i, id)
		}
		s.End()
	}
}

// FuzzTraceparent pins the traceparent codec: every non-zero span context
// survives Format→Parse, and Format∘Parse is idempotent on every accepted
// header, whose parent-id field must be the span it parsed to (no scanf
// leniency about spaces or trailing junk).
func FuzzTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", uint64(0), uint64(0), uint64(0))
	f.Add("42-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-00-extra", uint64(1), uint64(2), uint64(3))
	f.Fuzz(func(t *testing.T, s string, hi, lo, span uint64) {
		var sc SpanContext
		binary.BigEndian.PutUint64(sc.Trace[:8], hi)
		binary.BigEndian.PutUint64(sc.Trace[8:], lo)
		sc.Span = span
		if !sc.IsZero() {
			if got, err := ParseTraceparent(FormatTraceparent(sc)); err != nil || got != sc {
				t.Fatalf("Parse(Format(%+v)) = %+v, %v", sc, got, err)
			}
		}
		got, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if parts := strings.Split(strings.TrimSpace(s), "-"); !strings.EqualFold(parts[2], fmt.Sprintf("%016x", got.Span)) {
			t.Fatalf("%q parsed to span %016x", s, got.Span)
		}
		once := FormatTraceparent(got)
		again, err := ParseTraceparent(once)
		if err != nil || FormatTraceparent(again) != once {
			t.Fatalf("Format∘Parse not idempotent on %q: %q then %+v, %v", s, once, again, err)
		}
	})
}
