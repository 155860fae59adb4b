package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/tasks"
)

// writeFloats feeds the IEEE-754 bits of vs into h.
func writeFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// snapshotDigest hashes a backbone snapshot: every matrix in name order,
// then trust.
func snapshotDigest(h hash.Hash, s *Snapshot) {
	names := make([]string, 0, len(s.Mats))
	for name := range s.Mats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		writeFloats(h, s.Mats[name]...)
	}
	writeFloats(h, s.Trust)
}

// TestTrainPinned pins model.Train bit for bit: the full backbone and trust
// train under gradient clipping and weight decay, half the examples carry
// hint-firing knowledge, and 30 examples in batches of 8 end every epoch
// on a partial batch. Any change to the forward/backward pass, the
// sparse-row optimizer or the epoch loop that moves one bit of the result
// changes the digest.
func TestTrainPinned(t *testing.T) {
	m := New(tinyConfig())
	ins := toyED(30, 12)
	spec := tasks.SpecFor(tasks.ED)
	var examples []TrainExample
	for i, in := range ins {
		var k *tasks.Knowledge
		if i%2 == 0 {
			k = hintKnowledge()
		}
		examples = append(examples, TrainExample{Spec: spec, Instance: in, Knowledge: k})
	}
	tc := TrainConfig{Epochs: 3, LR: 0.03, Clip: 0.5, Seed: 21, WeightDecay: 1e-3, BatchSize: 8}
	ps := m.Params()
	loss := Train(m, examples, tc, &ps)
	h := sha256.New()
	writeFloats(h, loss)
	snapshotDigest(h, m.Export())
	const want = "dc3df2c20c3385825e0b811e2c79d4339da348506e48472897e6a20985ed29eb"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Train digest %s, want %s", got, want)
	}
}
