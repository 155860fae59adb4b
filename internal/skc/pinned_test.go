package skc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/tasks"
)

// patchDigest hashes a LoRA snapshot: name, then every attachment's B and A
// factors in layer-key order, as IEEE-754 bits.
func patchDigest(h hash.Hash, s *lora.Snapshot) {
	h.Write([]byte(s.Name))
	keys := make([]string, 0, len(s.B))
	for k := range s.B {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		for _, v := range append(append([]float64(nil), s.B[k].Data...), s.A[k].Data...) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// TestTransferPinned pins SKC bit for bit: Stage 1 extraction of two
// patches on a cloned base, then an adaptive Transfer (clone, fuse, few-shot
// fine-tune with weight decay and a partial final batch). The digest covers
// every extracted patch, every fused patch after fine-tuning, and λ.
func TestTransferPinned(t *testing.T) {
	base := tinyModel(1)
	rng := rand.New(rand.NewSource(23))
	upstream := base.Clone()
	ps := upstream.Params()
	model.Train(upstream, model.ExamplesFrom(tasks.ED, markerDataset(rng, 40, "%", ""), nil),
		model.TrainConfig{Epochs: 1, LR: 0.03, Clip: 5, Seed: 4}, &ps)
	sources := []Source{
		{Name: "rel", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "%", ""), nil)},
		{Name: "conf", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "#", "%"), nil)},
	}
	opts := testOptions()
	opts.FewShot = model.TrainConfig{Epochs: 4, LR: 0.02, Clip: 1, Seed: 12, WeightDecay: 3e-4, BatchSize: 4}
	snaps := ExtractPatches(base, sources, opts)
	tr, err := Transfer(upstream, snaps, model.ExamplesFrom(tasks.ED, markerDataset(rng, 18, "%", ""), nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ns := range snaps {
		patchDigest(h, ns.Snap)
	}
	for _, p := range tr.Fusion.Upstream {
		patchDigest(h, p.Export())
	}
	patchDigest(h, tr.Fusion.Shared.Export())
	var b [8]byte
	for _, w := range tr.Fusion.Weights() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	const want = "8cb9aa187d2d37a1f0799c7df473d694f0ce5cae82d7d3494f2fced8567392c4"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Transfer digest %s, want %s", got, want)
	}
}
