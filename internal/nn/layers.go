package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Attachment is one LoRA knowledge patch attached to a layer: the low-rank
// factors B and A (Eq. 2, ΔW = B·A), the scaling α, and the fusion
// coefficient λ (Eq. 4). Coef is shared across every layer carrying the same
// logical patch, so its gradient accumulates model-wide.
type Attachment struct {
	B, A  *Param
	Coef  *Scalar
	Alpha float64

	// Scratch reused across Forward/Backward of one example.
	z  tensor.Vec // A·u (rank-sized)
	bz tensor.Vec // B·z (output-sized), cached for dλ
	dz tensor.Vec // rank-sized gradient through the patch, Backward only
}

// rankScratch returns the attachment's rank-sized Backward scratch.
func (at *Attachment) rankScratch(r int) tensor.Vec {
	if cap(at.dz) < r {
		at.dz = tensor.NewVec(r)
	}
	return at.dz[:r]
}

// Rank returns the LoRA rank of the attachment.
func (at *Attachment) Rank() int { return at.A.W.Rows }

// NewAttachment builds a patch for a layer with the given input/output
// sizes. Following the paper's Section V-A, B is initialized from a random
// Gaussian and A with zeros so ΔW starts at zero. (The paper swaps the
// convention of the original LoRA paper; we follow the paper's text — the
// product still starts at zero, which is the property that matters.)
func NewAttachment(name string, out, in, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	b := NewParam(name+".B", out, rank)
	b.W.FillGaussian(rng, 1/math.Sqrt(float64(rank)))
	a := NewParam(name+".A", rank, in)
	return &Attachment{B: b, A: a, Coef: coef, Alpha: alpha}
}

// Params returns the patch's trainable matrices. The coefficient is owned by
// the fusion module and registered separately.
func (at *Attachment) Params() []*Param { return []*Param{at.B, at.A} }

// Embedding maps a sparse feature vector to a dense hidden vector:
// y = Eᵀx (+ LoRA patches). E has one row per feature bucket, so a row is an
// embedding and sparse input makes the pass O(nnz·h).
type Embedding struct {
	E       *Param // Dim x Hidden
	Patches []*Attachment

	in  *tensor.Sparse // cached input
	out tensor.Vec
}

// NewEmbedding allocates a dim x hidden embedding with scaled Gaussian init.
// Embedding gradients touch only the rows of active input features, so the
// parameter uses sparse-row tracking (see Param.TrackRows).
func NewEmbedding(name string, dim, hidden int, rng *rand.Rand) *Embedding {
	e := NewParam(name+".E", dim, hidden)
	e.W.FillGaussian(rng, 1/math.Sqrt(float64(hidden)))
	return embeddingOf(e)
}

func embeddingOf(e *Param) *Embedding {
	e.TrackRows()
	return &Embedding{E: e, out: tensor.NewVec(e.W.Cols)}
}

// CloneBase returns an embedding with a copy of E's weights and none of
// the patches, gradients or optimizer state; nothing is drawn at random.
func (l *Embedding) CloneBase() *Embedding { return embeddingOf(l.E.cloneWeights()) }

// Hidden returns the output dimensionality.
func (l *Embedding) Hidden() int { return l.E.W.Cols }

// Dim returns the input (feature-space) dimensionality.
func (l *Embedding) Dim() int { return l.E.W.Rows }

// Attach adds a LoRA patch with the given rank. For an embedding the factor
// shapes are B: Dim x r and A: r x Hidden, so ΔE = B·A matches E's shape.
func (l *Embedding) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	b := NewParam(name+".B", l.Dim(), rank)
	b.W.FillGaussian(rng, 1/math.Sqrt(float64(rank)))
	b.TrackRows()
	a := NewParam(name+".A", rank, l.Hidden())
	at := &Attachment{B: b, A: a, Coef: coef, Alpha: alpha}
	l.Patches = append(l.Patches, at)
	return at
}

// Forward computes y = Σⱼ xⱼ·E[j,:] + α Σₚ λₚ (Σⱼ xⱼ·Bₚ[j,:])·Aₚ.
func (l *Embedding) Forward(x *tensor.Sparse) tensor.Vec {
	l.in = x
	y := l.out
	y.Zero()
	for i, idx := range x.Idx {
		y.Axpy(x.Val[i], l.E.W.Row(int(idx)))
	}
	for _, at := range l.Patches {
		if at.Coef.Val == 0 && at.Coef.Frozen {
			continue
		}
		r := at.Rank()
		if cap(at.z) < r {
			at.z = tensor.NewVec(r)
		}
		u := at.z[:r]
		u.Zero()
		for i, idx := range x.Idx {
			u.Axpy(x.Val[i], at.B.W.Row(int(idx)))
		}
		if cap(at.bz) < len(y) {
			at.bz = tensor.NewVec(len(y))
		}
		ua := at.bz[:len(y)]
		at.A.W.MulVecT(u, ua) // ua = Aᵀ… wait: u (r) times A (r x h) → uᵀA, i.e. Aᵀu
		y.Axpy(at.Alpha*at.Coef.Val, ua)
	}
	return y
}

// Backward accumulates gradients given dL/dy. The sparse input has no
// gradient (features are data, not parameters).
func (l *Embedding) Backward(dy tensor.Vec) {
	checkLen("embedding dy", len(dy), l.Hidden())
	x := l.in
	if !l.E.Frozen {
		for i, idx := range x.Idx {
			l.E.G.Row(int(idx)).Axpy(x.Val[i], dy)
			l.E.TouchRow(int(idx))
		}
	}
	for _, at := range l.Patches {
		// Skip exactly the patches Forward skipped: with λ frozen at zero no
		// gradient reaches the patch and the scratch buffers are stale.
		if at.Coef.Val == 0 && at.Coef.Frozen {
			continue
		}
		r := at.Rank()
		u := at.z[:r] // cached Σⱼ xⱼ Bₚ[j,:]
		ua := at.bz[:len(dy)]
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			// dλ = α · dy·(uᵀA)  — ua holds uᵀA from Forward.
			at.Coef.Grad += at.Alpha * dy.Dot(ua)
		}
		if !at.A.Frozen {
			// dA += scale · outer(u, dy)
			at.A.G.RankOne(scale, u, dy)
		}
		if !at.B.Frozen {
			// du = scale · A·dy ; dB[j,:] += xⱼ·du
			du := at.rankScratch(r)
			at.A.W.MulVec(dy, du)
			du.Scale(scale)
			for i, idx := range x.Idx {
				at.B.G.Row(int(idx)).Axpy(x.Val[i], du)
				at.B.TouchRow(int(idx))
			}
		}
	}
}

// Params returns the layer's own parameters plus all patch factors.
func (l *Embedding) Params() []*Param {
	out := []*Param{l.E}
	for _, at := range l.Patches {
		out = append(out, at.Params()...)
	}
	return out
}

// Dense is a fully connected layer y = W·u + b (+ LoRA patches).
type Dense struct {
	W, B    *Param // W: out x in, B: 1 x out
	Patches []*Attachment

	in  tensor.Vec
	out tensor.Vec
	din tensor.Vec
	tmp tensor.Vec // Aᵀdz of one patch in Backward
}

// NewDense allocates an out x in layer with Xavier-style init.
func NewDense(name string, out, in int, rng *rand.Rand) *Dense {
	w := NewParam(name+".W", out, in)
	w.W.FillGaussian(rng, math.Sqrt(2/float64(in+out)))
	return denseOf(w, NewParam(name+".b", 1, out))
}

func denseOf(w, b *Param) *Dense {
	in := w.W.Cols
	return &Dense{W: w, B: b, out: tensor.NewVec(w.W.Rows), din: tensor.NewVec(in), tmp: tensor.NewVec(in)}
}

// CloneBase returns a layer with copies of W and b and none of the patches,
// gradients or optimizer state; nothing is drawn at random.
func (l *Dense) CloneBase() *Dense { return denseOf(l.W.cloneWeights(), l.B.cloneWeights()) }

// In returns the input size; Out the output size.
func (l *Dense) In() int  { return l.W.W.Cols }
func (l *Dense) Out() int { return l.W.W.Rows }

// Attach adds a LoRA patch: B: out x r, A: r x in.
func (l *Dense) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	at := NewAttachment(name, l.Out(), l.In(), rank, alpha, coef, rng)
	l.Patches = append(l.Patches, at)
	return at
}

// Forward computes y = W·u + b + α Σₚ λₚ Bₚ(Aₚu).
func (l *Dense) Forward(u tensor.Vec) tensor.Vec {
	checkLen("dense input", len(u), l.In())
	l.in = u
	y := l.out
	l.W.W.MulVec(u, y)
	y.Axpy(1, l.B.W.Row(0))
	for _, at := range l.Patches {
		if at.Coef.Val == 0 && at.Coef.Frozen {
			continue
		}
		r := at.Rank()
		if cap(at.z) < r {
			at.z = tensor.NewVec(r)
		}
		z := at.z[:r]
		at.A.W.MulVec(u, z)
		if cap(at.bz) < len(y) {
			at.bz = tensor.NewVec(len(y))
		}
		bz := at.bz[:len(y)]
		at.B.W.MulVec(z, bz)
		y.Axpy(at.Alpha*at.Coef.Val, bz)
	}
	return y
}

// Backward accumulates parameter gradients and returns dL/du. The returned
// slice is reused between calls; callers must not retain it.
func (l *Dense) Backward(dy tensor.Vec) tensor.Vec {
	checkLen("dense dy", len(dy), l.Out())
	du := l.din
	l.W.W.MulVecT(dy, du)
	if !l.W.Frozen {
		l.W.G.RankOne(1, dy, l.in)
	}
	if !l.B.Frozen {
		l.B.G.Row(0).Axpy(1, dy)
	}
	for _, at := range l.Patches {
		// Match Forward's skip condition; see Embedding.Backward.
		if at.Coef.Val == 0 && at.Coef.Frozen {
			continue
		}
		r := at.Rank()
		z := at.z[:r]
		bz := at.bz[:l.Out()]
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			at.Coef.Grad += at.Alpha * dy.Dot(bz)
		}
		// dz = scale·Bᵀdy (needed for both dA and du)
		dz := at.rankScratch(r)
		at.B.W.MulVecT(dy, dz)
		dz.Scale(scale)
		if !at.B.Frozen {
			at.B.G.RankOne(scale, dy, z)
		}
		if !at.A.Frozen {
			at.A.G.RankOne(1, dz, l.in)
		}
		// du += Aᵀdz
		at.A.W.MulVecT(dz, l.tmp)
		du.Axpy(1, l.tmp)
	}
	return du
}

// Params returns the layer's own parameters plus all patch factors.
func (l *Dense) Params() []*Param {
	out := []*Param{l.W, l.B}
	for _, at := range l.Patches {
		out = append(out, at.Params()...)
	}
	return out
}

// Tanh is an elementwise tanh activation.
type Tanh struct {
	out tensor.Vec
	din tensor.Vec
}

// Forward applies tanh elementwise.
func (l *Tanh) Forward(u tensor.Vec) tensor.Vec {
	if cap(l.out) < len(u) {
		l.out = tensor.NewVec(len(u))
		l.din = tensor.NewVec(len(u))
	}
	y := l.out[:len(u)]
	for i, v := range u {
		y[i] = math.Tanh(v)
	}
	return y
}

// Backward returns dL/du given dL/dy using the cached output.
func (l *Tanh) Backward(dy tensor.Vec) tensor.Vec {
	y := l.out[:len(dy)]
	du := l.din[:len(dy)]
	for i, g := range dy {
		du[i] = g * (1 - y[i]*y[i])
	}
	return du
}

// SoftmaxCE computes softmax cross-entropy over a score vector and the
// gradient dL/dscores. It returns the loss and writes the gradient into
// dscores (which must have the same length as scores).
func SoftmaxCE(scores tensor.Vec, gold int, dscores tensor.Vec) float64 {
	checkLen("softmaxce dscores", len(dscores), len(scores))
	if gold < 0 || gold >= len(scores) {
		panic("nn: gold index out of range")
	}
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	var z float64
	for i, s := range scores {
		e := math.Exp(s - max)
		dscores[i] = e
		z += e
	}
	for i := range dscores {
		dscores[i] /= z
	}
	loss := -math.Log(dscores[gold] + 1e-12)
	dscores[gold] -= 1
	return loss
}

// Softmax converts scores to probabilities in place.
func Softmax(scores tensor.Vec) {
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	var z float64
	for i, s := range scores {
		scores[i] = math.Exp(s - max)
		z += scores[i]
	}
	for i := range scores {
		scores[i] /= z
	}
}
