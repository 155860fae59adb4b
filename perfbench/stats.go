package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// sliceMedian is the median over slices of each slice's q-quantile.
func sliceMedian(slices [][]float64, q float64) float64 {
	var per []float64
	for _, s := range slices {
		if len(s) > 0 {
			per = append(per, quantile(s, q))
		}
	}
	return quantile(per, 0.5)
}

// perSlice is the median over slices of count/wall, per second.
func perSlice(counts []int, walls []time.Duration) float64 {
	var per []float64
	for k, w := range walls {
		per = append(per, ratio(float64(counts[k]), w.Seconds()))
	}
	return quantile(per, 0.5)
}

func flatten(slices [][]float64) []float64 {
	var out []float64
	for _, s := range slices {
		out = append(out, s...)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the peak of the Go heap in use (live plus not yet
// swept objects), read from runtime/metrics every few milliseconds until
// stop.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-t.C:
			case <-h.stopc:
				h.sample()
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
