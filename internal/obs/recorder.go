package obs

import (
	"runtime/debug"
	"time"
)

// Recorder bundles a metrics registry and a tracer and is what the
// pipeline threads through model → skc/akb → core → eval. Every method is
// safe on a nil *Recorder and costs exactly one pointer check there, so
// instrumented hot paths (model.Predict, train steps) add zero allocations
// and no clock reads when observability is disabled — the uninstrumented
// default of every library entry point.
//
// Span parentage is carried by the recorder itself: StartSpan returns a
// derived recorder whose subsequent spans nest under the new span, which is
// how Transfer → SKC stages → AKB iterations form one tree without any
// global (goroutine-local) state.
type Recorder struct {
	Metrics *Registry
	Tracer  *Tracer
	parent  *Span
}

// NewRecorder returns a recorder over the given registry and tracer.
// Either may be nil to enable only the other half.
func NewRecorder(reg *Registry, tr *Tracer) *Recorder {
	return &Recorder{Metrics: reg, Tracer: tr}
}

// StartSpan opens a span nested under the recorder's current span and
// returns it with a derived recorder for the enclosed work. On a nil
// recorder (or one without a tracer) both results are nil — and every
// Span/Recorder method tolerates that.
func (r *Recorder) StartSpan(name string) (*Recorder, *Span) {
	if r == nil || r.Tracer == nil {
		return r, nil
	}
	var s *Span
	if r.parent != nil {
		s = r.parent.StartChild(name)
	} else {
		s = r.Tracer.StartSpan(name)
	}
	return &Recorder{Metrics: r.Metrics, Tracer: r.Tracer, parent: s}, s
}

// StartSpanIn opens a span inside an existing trace under a remote parent
// (the span context a `traceparent` header carried) and returns it with a
// derived recorder, ignoring the recorder's own parent span. A zero remote
// behaves like StartSpan on a parentless recorder: fresh root, fresh trace.
func (r *Recorder) StartSpanIn(name string, remote SpanContext) (*Recorder, *Span) {
	if r == nil || r.Tracer == nil {
		return r, nil
	}
	s := r.Tracer.StartSpanIn(name, remote)
	return &Recorder{Metrics: r.Metrics, Tracer: r.Tracer, parent: s}, s
}

// SeedTraceIDs makes the tracer's trace IDs deterministic in the seed; a
// recorder without a tracer ignores it.
func (r *Recorder) SeedTraceIDs(seed int64) {
	if r == nil {
		return
	}
	r.Tracer.SeedTraceIDs(seed)
}

// Count adds d to the named counter.
func (r *Recorder) Count(name string, d int64) {
	if r == nil || r.Metrics == nil {
		return
	}
	r.Metrics.Counter(name).Add(d)
}

// SetGauge stores v in the named gauge.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil || r.Metrics == nil {
		return
	}
	r.Metrics.Gauge(name).Set(v)
}

// DeleteGauge retires the named gauge from the registry (see
// Registry.DeleteGauge). Nil-safe like every Recorder method.
func (r *Recorder) DeleteGauge(name string) {
	if r == nil || r.Metrics == nil {
		return
	}
	r.Metrics.DeleteGauge(name)
}

// Event emits a structured event into the trace stream, parented to the
// recorder's current span. args are slog-style attributes (alternating
// key/value pairs or slog.Attr values). Events are how the pipeline records
// point-in-time decisions — AKB candidate accept/reject, feedback text —
// that have no duration but belong on the span timeline.
func (r *Recorder) Event(name string, args ...any) {
	if r == nil || r.Tracer == nil {
		return
	}
	r.Tracer.EventIn(r.parent.Context(), name, args...)
}

// Observe records v in the named histogram (created with the given bounds,
// DefaultLatencyBounds when nil).
func (r *Recorder) Observe(name string, v float64, bounds []float64) {
	if r == nil || r.Metrics == nil {
		return
	}
	r.Metrics.Histogram(name, bounds).Observe(v)
}

// ObserveEx records v in the named histogram like Observe and, when
// exemplar is non-empty, stamps it as the bucket's exemplar — the "last
// trace ID seen in this latency bucket" breadcrumb /metrics.json exposes,
// which turns a fat tail bucket into a concrete trace to pull.
func (r *Recorder) ObserveEx(name string, v float64, bounds []float64, exemplar string) {
	if r == nil || r.Metrics == nil {
		return
	}
	r.Metrics.Histogram(name, bounds).ObserveExemplar(v, exemplar)
}

// Now returns the wall clock when the recorder is live and the zero time
// otherwise, so disabled instrumentation skips the clock read entirely:
//
//	start := rec.Now()
//	... work ...
//	rec.ObserveSince("stage_us", start)
func (r *Recorder) Now() time.Time {
	if r == nil || r.Metrics == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed microseconds since start (obtained from
// Now) in the named duration histogram.
func (r *Recorder) ObserveSince(name string, start time.Time) {
	if r == nil || r.Metrics == nil || start.IsZero() {
		return
	}
	r.Metrics.Histogram(name, DefaultLatencyBounds).Observe(float64(time.Since(start).Microseconds()))
}

// Revision extracts the VCS revision stamped into the binary at build
// time (empty for `go test` binaries and builds outside a checkout).
func Revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}
