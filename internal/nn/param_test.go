package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func rowTracked(rows, cols int) *Param {
	p := NewParam("p", rows, cols)
	p.TrackRows()
	return p
}

func TestTouchRowRecordsOnce(t *testing.T) {
	p := rowTracked(10, 3)
	p.TouchRow(4)
	p.TouchRow(4)
	p.TouchRow(2)
	if got := p.touchedRows(); !slices.Equal(got, []int32{2, 4}) {
		t.Fatalf("touched rows %v, want [2 4]", got)
	}
}

func TestTouchedRowsAscendingAfterLaterTouch(t *testing.T) {
	p := rowTracked(10, 3)
	p.TouchRow(7)
	p.TouchRow(3)
	if got := p.touchedRows(); !slices.Equal(got, []int32{3, 7}) {
		t.Fatalf("touched rows %v, want [3 7]", got)
	}
	// A touch after a read must be merged into the order, not appended.
	p.TouchRow(1)
	p.TouchRow(5)
	p.TouchRow(3)
	if got := p.touchedRows(); !slices.Equal(got, []int32{1, 3, 5, 7}) {
		t.Fatalf("touched rows %v, want [1 3 5 7]", got)
	}
}

func TestZeroGradClearsExactlyTouchedRows(t *testing.T) {
	p := rowTracked(6, 2)
	for i := range p.G.Data {
		p.G.Data[i] = 1
	}
	p.TouchRow(1)
	p.TouchRow(4)
	p.ZeroGrad()
	for r := 0; r < 6; r++ {
		want := 1.0
		if r == 1 || r == 4 {
			want = 0
		}
		for _, g := range p.G.Row(r) {
			if g != want {
				t.Fatalf("row %d gradient %v after ZeroGrad, want %v", r, g, want)
			}
		}
	}
	if got := p.touchedRows(); len(got) != 0 {
		t.Fatalf("touched rows %v after ZeroGrad, want none", got)
	}
	// Marks are cleared too: a row touched again is recorded again.
	p.TouchRow(4)
	if got := p.touchedRows(); !slices.Equal(got, []int32{4}) {
		t.Fatalf("touched rows %v after re-touch, want [4]", got)
	}
}

// TestRowTrackedMatchesDenseReference runs gradient norm, clipping and
// Adam with weight decay over several steps on a row-tracked parameter
// whose rows are touched in shuffled order (with repeats), and on a dense
// parameter holding exactly those rows in ascending order. Every result
// must agree bit for bit: the sparse path is the dense arithmetic over the
// touched rows, reduced in ascending row order.
func TestRowTrackedMatchesDenseReference(t *testing.T) {
	const rows, cols = 40, 3
	touched := []int{31, 2, 17, 9, 30, 5}
	sorted := slices.Clone(touched)
	slices.Sort(sorted)
	rng := rand.New(rand.NewSource(3))

	sparse := rowTracked(rows, cols)
	sparse.W.FillGaussian(rng, 1)
	dense := NewParam("p", len(sorted), cols)
	for i, r := range sorted {
		copy(dense.W.Row(i), sparse.W.Row(r))
	}
	sScalar, dScalar := &Scalar{Name: "s", Val: 0.5}, &Scalar{Name: "s", Val: 0.5}
	var sps, dps ParamSet
	sps.Add(sparse)
	sps.AddScalar(sScalar)
	dps.Add(dense)
	dps.AddScalar(dScalar)
	sOpt, dOpt := NewAdam(0.05), NewAdam(0.05)
	sOpt.WeightDecay, dOpt.WeightDecay = 1e-2, 1e-2

	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: row-tracked %v, dense %v", what, a, b)
		}
	}
	for step := 0; step < 5; step++ {
		sps.ZeroGrad()
		dps.ZeroGrad()
		order := slices.Clone(touched)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		order = append(order, order[0])
		for _, r := range order {
			sparse.TouchRow(r)
			g := sparse.G.Row(r)
			dg := dense.G.Row(slices.Index(sorted, r))
			for c := range g {
				v := rng.NormFloat64() * 10
				g[c] += v
				dg[c] += v
			}
		}
		v := rng.NormFloat64()
		sScalar.Grad, dScalar.Grad = v, v

		same("GradNorm", sps.GradNorm(), dps.GradNorm())
		same("ClipGradNorm", sps.ClipGradNorm(1), dps.ClipGradNorm(1))
		sOpt.Step(&sps)
		dOpt.Step(&dps)
		for i, r := range sorted {
			for c := 0; c < cols; c++ {
				same("clipped gradient", sparse.G.At(r, c), dense.G.At(i, c))
				same("weight", sparse.W.At(r, c), dense.W.At(i, c))
			}
		}
		same("scalar", sScalar.Val, dScalar.Val)
	}
}
