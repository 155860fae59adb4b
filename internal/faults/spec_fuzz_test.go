package faults

import (
	"math"
	"slices"
	"testing"
)

// FuzzFaultSpec pins what ParseSpec admits: an accepted spec has a finite
// rate in [0,1], a non-negative latency and only kinds from AllKinds, and
// Wrap builds an injector from it without panicking.
func FuzzFaultSpec(f *testing.F) {
	f.Add("rate=0.3,seed=9,kinds=timeout+empty,latency=5ms")
	f.Add("rate=0")
	f.Add("rate=NaN")
	f.Add("rate=1e-400,latency=0s")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) || cfg.Rate < 0 || cfg.Rate > 1 {
			t.Fatalf("%q accepted with rate %v", spec, cfg.Rate)
		}
		if cfg.Latency < 0 {
			t.Fatalf("%q accepted with latency %v", spec, cfg.Latency)
		}
		for _, k := range cfg.Kinds {
			if !slices.Contains(AllKinds, k) {
				t.Fatalf("%q accepted with unknown kind %q", spec, k)
			}
		}
		Wrap(&scriptOracle{}, cfg)
	})
}
