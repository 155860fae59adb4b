package baselines

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// snapshotDigest hashes a backbone snapshot: every matrix in name order as
// IEEE-754 bits, then trust.
func snapshotDigest(h hash.Hash, s *model.Snapshot) {
	names := make([]string, 0, len(s.Mats))
	for name := range s.Mats {
		names = append(names, name)
	}
	sort.Strings(names)
	var b [8]byte
	writeFloats := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, name := range names {
		h.Write([]byte(name))
		writeFloats(s.Mats[name]...)
	}
	writeFloats(s.Trust)
}

// TestPlainFTPinned pins the plain fine-tune recipe bit for bit through both
// of its callers: the "w/o SKC" ablation of core.Transfer and the
// FineTuned baseline's Adapt. Both fine-tune the whole backbone on the same
// few-shot sample with the same recipe, so both snapshots hash to the
// same digest.
func TestPlainFTPinned(t *testing.T) {
	const want = "e54402f8dea01a1797e3dd85723bf03fd0051c9a3f3094b490f29a5c35cd83e8"
	b := smallBundle("ED/Beer")
	ctx := ctxFor(b, 9)
	digest := func(m *model.Model) string {
		h := sha256.New()
		snapshotDigest(h, m.Export())
		return hex.EncodeToString(h.Sum(nil))
	}

	kt := core.NewKnowTrans(tinyBackbone()(), nil, core.WithSKC(false), core.WithAKB(false))
	ad, err := kt.Transfer(context.Background(), b.Kind, ctx.FewShot, ctx.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(ad.Model); got != want {
		t.Errorf("w/o SKC Transfer digest %s, want %s", got, want)
	}
	p := (&FineTuned{MethodName: "ft", Backbone: tinyBackbone()}).Adapt(ctx)
	if got := digest(p.(*modelPredictor).m); got != want {
		t.Errorf("FineTuned.Adapt digest %s, want %s", got, want)
	}
}
