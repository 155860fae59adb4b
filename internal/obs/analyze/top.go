package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// KeyDepth is one adapter key's live queue depth.
type KeyDepth struct {
	Key   string  `json:"key"`
	Depth float64 `json:"depth"`
}

// TopStats is one refresh of the live operator view: what `knowtrans obs
// top` renders from consecutive /metrics.json snapshots. Quantiles are
// *rolling* — estimated from the bucket-count deltas between the two
// snapshots, so they describe the interval, not the process lifetime.
type TopStats struct {
	Inflight   int64      `json:"inflight"`
	Requests   int64      `json:"requests"`             // total served so far
	Delta      int64      `json:"delta"`                // served during the interval
	P50US      float64    `json:"p50_us"`               // rolling, from bucket deltas
	P95US      float64    `json:"p95_us"`               // rolling, from bucket deltas
	SlowTrace  string     `json:"slow_trace,omitempty"` // exemplar from the slowest active bucket
	QueueDepth []KeyDepth `json:"queue_depth,omitempty"`
}

// ServeLatencyMetric is the serve-layer request latency histogram BuildTop
// reads, and ServeInflightMetric the live request gauge. ServeQueuePrefix
// prefixes the per-adapter-key queue depth gauges.
const (
	ServeLatencyMetric  = "serve.request_us"
	ServeInflightMetric = "serve.inflight"
	ServeQueuePrefix    = "serve.queue_depth/"
)

// BuildTop derives one refresh from two registry snapshots (prev may be the
// zero value on the first poll, making the "interval" the whole lifetime).
func BuildTop(prev, cur obs.RegistrySnapshot) TopStats {
	s := TopStats{Inflight: int64(cur.Gauges[ServeInflightMetric])}
	for name, v := range cur.Gauges {
		if key, ok := strings.CutPrefix(name, ServeQueuePrefix); ok {
			s.QueueDepth = append(s.QueueDepth, KeyDepth{Key: key, Depth: v})
		}
	}
	sort.Slice(s.QueueDepth, func(i, j int) bool {
		if s.QueueDepth[i].Depth != s.QueueDepth[j].Depth {
			return s.QueueDepth[i].Depth > s.QueueDepth[j].Depth
		}
		return s.QueueDepth[i].Key < s.QueueDepth[j].Key
	})

	h, ok := cur.Histograms[ServeLatencyMetric]
	if !ok {
		return s
	}
	s.Requests = h.Count
	ph := prev.Histograms[ServeLatencyMetric]
	s.Delta = h.Count - ph.Count
	deltas := make([]int64, len(h.Bkt))
	var total int64
	for i := range h.Bkt {
		d := h.Bkt[i]
		if i < len(ph.Bkt) {
			d -= ph.Bkt[i]
		}
		if d < 0 { // server restarted between polls
			d = h.Bkt[i]
		}
		deltas[i] = d
		total += d
	}
	s.P50US = bucketQuantile(h.Le, deltas, total, 0.50)
	s.P95US = bucketQuantile(h.Le, deltas, total, 0.95)
	// Exemplar: the last trace ID stamped in the slowest bucket that saw
	// traffic this interval (falling back to lifetime buckets when the
	// interval was quiet).
	for i := len(deltas) - 1; i >= 0; i-- {
		if i < len(h.Exemplars) && h.Exemplars[i] != "" && (deltas[i] > 0 || total == 0) {
			s.SlowTrace = h.Exemplars[i]
			break
		}
	}
	return s
}

// bucketQuantile estimates a quantile from per-bucket counts over upper
// bounds le (one overflow bucket at the end, clamped at the last bound)
// through the shared obs.BucketQuantile interpolation.
func bucketQuantile(le []float64, counts []int64, total int64, q float64) float64 {
	span := func(i int) (lo, hi float64) {
		if i > 0 {
			lo = le[i-1]
		}
		if i < len(le) {
			return lo, le[i]
		}
		return le[len(le)-1], le[len(le)-1]
	}
	v, _ := obs.BucketQuantile(len(counts), func(i int) int64 { return counts[i] }, total, q, span)
	return v
}

// WriteText renders one refresh as the compact live view.
func (s TopStats) WriteText(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "inflight %d  served %d (+%d)  p50 %s  p95 %s",
		s.Inflight, s.Requests, s.Delta, fmtUSf(s.P50US), fmtUSf(s.P95US))
	if s.SlowTrace != "" {
		fmt.Fprintf(&sb, "  slow-trace %s", s.SlowTrace)
	}
	sb.WriteString("\n")
	if len(s.QueueDepth) > 0 {
		sb.WriteString("  queue depth by key:\n")
		for _, kd := range s.QueueDepth {
			fmt.Fprintf(&sb, "    %-24s %.0f\n", kd.Key, kd.Depth)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
