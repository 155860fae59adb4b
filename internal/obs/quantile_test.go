package obs

import (
	"math"
	"testing"
)

// TestHistogramQuantilePinned pins Histogram.Quantile bit for bit across
// empty, single-value, underflow, overflow and spread-out histograms, so
// the shared bucket interpolation (BucketQuantile) cannot drift the
// summaries that /metrics.json and every metrics snapshot publish.
func TestHistogramQuantilePinned(t *testing.T) {
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	spread := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		spread = append(spread, float64((i*37)%1000)+0.25)
	}
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
		want   []float64
	}{
		{"empty", []float64{1, 10, 100}, nil,
			[]float64{0, 0, 0, 0, 0, 0, 0, 0}},
		{"single", []float64{1, 10, 100}, []float64{7},
			[]float64{7, 7, 7, 7, 7, 7, 7, 7}},
		{"overflow", []float64{1, 10, 100}, []float64{5, 500, 5000},
			[]float64{5, 5.15, 8.75, 1325, 4265, 4632.499999999999, 4926.499999999999, 5000}},
		{"underflow", []float64{10, 100}, []float64{0.5, 0.75, 3},
			[]float64{0.5, 0.525, 1.125, 1.75, 2.75, 2.8749999999999996, 2.9749999999999996, 3}},
		{"spread", []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}, spread,
			[]float64{0.25, 23.75, 244.2622950819672, 490.1639344262295, 897.3622448979592, 948.3061224489795, 989.0612244897959, 999.25}},
		{"latency", DefaultLatencyBounds, []float64{120, 950, 1300, 2400, 2400, 8000, 15000, 15001, 90000, 2e6},
			[]float64{120, 128, 1500, 5000, 100000, 1.5e+06, 1.9000000000000005e+06, 2e+06}},
	}
	for _, c := range cases {
		h := newHistogram(c.bounds)
		for _, v := range c.obs {
			h.Observe(v)
		}
		for i, q := range qs {
			if got := h.Quantile(q); math.Float64bits(got) != math.Float64bits(c.want[i]) {
				t.Errorf("%s: Quantile(%g) = %v, want %v", c.name, q, got, c.want[i])
			}
		}
	}
}
