package analyze

import (
	"math"
	"testing"
)

// TestQuantilePinned pins both quantile estimators of this package bit
// for bit: the exact-sample Quantile (trace stage p50/p95, the drill load
// generator) and bucketQuantile (obs top's interval p50/p95 over
// /metrics.json bucket deltas).
func TestQuantilePinned(t *testing.T) {
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	samples := []struct {
		name string
		in   []int64
		want []float64
	}{
		{"empty", nil, []float64{0, 0, 0, 0, 0, 0, 0, 0}},
		{"one", []int64{42}, []float64{42, 42, 42, 42, 42, 42, 42, 42}},
		{"two", []int64{10, 20}, []float64{10, 10.1, 12.5, 15, 19, 19.5, 19.9, 20}},
		{"spread", []int64{1, 3, 3, 7, 19, 250, 1000, 1001, 5000, 123456},
			[]float64{1, 1.18, 4, 134.5, 16845.59999999996, 70150.79999999987, 112794.96000000002, 123456}},
	}
	for _, c := range samples {
		for i, q := range qs {
			if got := Quantile(c.in, q); math.Float64bits(got) != math.Float64bits(c.want[i]) {
				t.Errorf("sample %s: Quantile(%g) = %v, want %v", c.name, q, got, c.want[i])
			}
		}
	}

	le := []float64{1, 2, 5, 10, 20, 50}
	buckets := []struct {
		name   string
		counts []int64
		want   []float64
	}{
		{"empty", []int64{0, 0, 0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, 0, 0, 0, 0}},
		{"first", []int64{4, 0, 0, 0, 0, 0, 0}, []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}},
		{"mixed", []int64{1, 0, 3, 5, 0, 2, 0},
			[]float64{0, 0.11, 3.75, 6.5, 33.50000000000001, 41.749999999999986, 48.35000000000001, 50}},
		{"overflow", []int64{0, 1, 0, 0, 0, 0, 9}, []float64{1, 1.1, 50, 50, 50, 50, 50, 50}},
	}
	for _, c := range buckets {
		var total int64
		for _, n := range c.counts {
			total += n
		}
		for i, q := range qs {
			if got := bucketQuantile(le, c.counts, total, q); math.Float64bits(got) != math.Float64bits(c.want[i]) {
				t.Errorf("buckets %s: bucketQuantile(%g) = %v, want %v", c.name, q, got, c.want[i])
			}
		}
	}
}
