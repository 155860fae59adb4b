// Package nn is the neural substrate of the reproduction: parameters,
// layers with explicit Forward/Backward passes, LoRA attachments, and
// optimizers. It replaces the PyTorch + PEFT stack the paper uses.
//
// Design notes:
//
//   - Layers are stateful: Forward caches the activations Backward needs, so
//     a layer instance must be used by one goroutine at a time.
//   - LoRA patches are never materialized; ΔW·x is computed as B(Ax), which
//     is what makes dozens of per-dataset patches affordable (Section V-A).
//   - Fusion coefficients λ (Eq. 4) are Scalars shared across layers: every
//     layer carrying patch i contributes to the same λᵢ gradient, exactly as
//     a single interpolation weight per upstream patch in the paper.
package nn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Param is a trainable matrix with its gradient and Adam moments.
//
// Parameters whose gradients touch only a few rows per step (embedding
// tables and their LoRA B factors — the rows of the active input features)
// opt into sparse-row tracking via TrackRows: Backward records touched rows
// with TouchRow, and ZeroGrad / gradient norms / Adam then visit only those
// rows. This is the standard "sparse Adam" approximation (moments of
// untouched rows do not decay on steps that skip them).
//
// The touched-row set is a per-row mark array plus the list of marked rows:
// TouchRow is O(1), ZeroGrad clears only the listed rows, and the list is
// sorted once per optimizer step however many passes read it.
type Param struct {
	Name   string
	W      *tensor.Mat
	G      *tensor.Mat
	Frozen bool

	m, v *tensor.Mat // Adam first/second moments, allocated lazily

	mark    []bool  // mark[r]: row r is in touched; nil = dense gradients
	touched []int32 // rows marked since the last ZeroGrad
	sorted  bool    // touched is in ascending order
}

// NewParam allocates a zero-initialized parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		W:    tensor.NewMat(rows, cols),
		G:    tensor.NewMat(rows, cols),
	}
}

// cloneWeights returns a fresh parameter of the same name and shape holding
// a copy of W, with zero gradient, no optimizer state and dense tracking.
func (p *Param) cloneWeights() *Param {
	c := NewParam(p.Name, p.W.Rows, p.W.Cols)
	copy(c.W.Data, p.W.Data)
	return c
}

// TrackRows switches the parameter to sparse-row gradient tracking.
func (p *Param) TrackRows() {
	if p.mark == nil {
		p.mark = make([]bool, p.W.Rows)
	}
}

// TouchRow records that row r received gradient this step. It is a no-op
// for dense parameters and for rows already touched.
func (p *Param) TouchRow(r int) {
	if p.mark != nil && !p.mark[r] {
		p.mark[r] = true
		p.touched = append(p.touched, int32(r))
		p.sorted = false
	}
}

// ZeroGrad clears the accumulated gradient (only the touched rows for
// sparse-tracked parameters).
func (p *Param) ZeroGrad() {
	if p.mark != nil {
		for _, r := range p.touched {
			p.G.Row(int(r)).Zero()
			p.mark[r] = false
		}
		p.touched = p.touched[:0]
		return
	}
	p.G.Zero()
}

// touchedRows returns the touched-row indices in ascending order. The
// order is what keeps floating-point reductions (gradient norms) and so
// training bit-identical across runs: the rows arrive in the order
// Backward touched them, which differs between batches of the same data.
// The slice is sorted in place at most once between touches; callers must
// not retain it past the next TouchRow or ZeroGrad.
func (p *Param) touchedRows() []int32 {
	if !p.sorted {
		slices.Sort(p.touched)
		p.sorted = true
	}
	return p.touched
}

// gradRows invokes f on every row slice of G that may hold gradient, in a
// deterministic order.
func (p *Param) gradRows(f func(row tensor.Vec)) {
	if p.mark != nil {
		for _, r := range p.touchedRows() {
			f(p.G.Row(int(r)))
		}
		return
	}
	f(tensor.Vec(p.G.Data))
}

// NumParams returns the number of scalar parameters in p.
func (p *Param) NumParams() int { return len(p.W.Data) }

// Scalar is a single trainable value, used for the fusion weights λ.
type Scalar struct {
	Name   string
	Val    float64
	Grad   float64
	Frozen bool

	m, v float64 // Adam moments
}

// ZeroGrad clears the scalar gradient.
func (s *Scalar) ZeroGrad() { s.Grad = 0 }

// ParamSet is the collection of everything an optimizer updates.
type ParamSet struct {
	Mats    []*Param
	Scalars []*Scalar
}

// Add appends matrix parameters.
func (ps *ParamSet) Add(params ...*Param) { ps.Mats = append(ps.Mats, params...) }

// AddScalar appends scalar parameters.
func (ps *ParamSet) AddScalar(scalars ...*Scalar) { ps.Scalars = append(ps.Scalars, scalars...) }

// ZeroGrad clears all gradients.
func (ps *ParamSet) ZeroGrad() {
	for _, p := range ps.Mats {
		p.ZeroGrad()
	}
	for _, s := range ps.Scalars {
		s.ZeroGrad()
	}
}

// GradNorm returns the global Euclidean norm of all non-frozen gradients.
func (ps *ParamSet) GradNorm() float64 {
	var t float64
	for _, p := range ps.Mats {
		if p.Frozen {
			continue
		}
		p.gradRows(func(row tensor.Vec) {
			for _, g := range row {
				t += g * g
			}
		})
	}
	for _, s := range ps.Scalars {
		if s.Frozen {
			continue
		}
		t += s.Grad * s.Grad
	}
	return math.Sqrt(t)
}

// ClipGradNorm rescales all gradients so the global norm is at most max.
// It returns the pre-clip norm.
func (ps *ParamSet) ClipGradNorm(max float64) float64 {
	n := ps.GradNorm()
	if n <= max || n == 0 {
		return n
	}
	scale := max / n
	for _, p := range ps.Mats {
		if p.Frozen {
			continue
		}
		p.gradRows(func(row tensor.Vec) {
			for i := range row {
				row[i] *= scale
			}
		})
	}
	for _, s := range ps.Scalars {
		if !s.Frozen {
			s.Grad *= scale
		}
	}
	return n
}

// NumParams returns the total number of trainable scalars (frozen excluded).
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, p := range ps.Mats {
		if !p.Frozen {
			n += p.NumParams()
		}
	}
	for _, s := range ps.Scalars {
		if !s.Frozen {
			n++
		}
	}
	return n
}

// Adam is the Adam optimizer (Kingma & Ba) with optional weight decay,
// matching the fine-tuning recipe in Section VII-A.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every non-frozen parameter and clears nothing;
// call ParamSet.ZeroGrad before the next backward pass.
func (a *Adam) Step(ps *ParamSet) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range ps.Mats {
		if p.Frozen {
			continue
		}
		if p.m == nil {
			p.m = tensor.NewMat(p.W.Rows, p.W.Cols)
			p.v = tensor.NewMat(p.W.Rows, p.W.Cols)
		}
		// Constants live in locals so the loop does not reload them
		// through a. Keep each expression's shape and operand order:
		// training results are pinned bit for bit (TestTrainPinned).
		beta1, beta2, lr, eps, wd := a.Beta1, a.Beta2, a.LR, a.Eps, a.WeightDecay
		om1, om2 := 1-beta1, 1-beta2
		update := func(g, w, m, v []float64) {
			for i := range g {
				gi := g[i]
				if wd != 0 {
					gi += wd * w[i]
				}
				m[i] = beta1*m[i] + om1*gi
				v[i] = beta2*v[i] + om2*gi*gi
				mh := m[i] / b1c
				vh := v[i] / b2c
				w[i] -= lr * mh / (math.Sqrt(vh) + eps)
			}
		}
		if p.mark != nil {
			// Sparse-Adam: only rows touched since the last ZeroGrad carry
			// gradient; untouched rows are skipped (their moments freeze).
			cols := p.W.Cols
			for _, r := range p.touchedRows() {
				off := int(r) * cols
				update(p.G.Data[off:off+cols], p.W.Data[off:off+cols],
					p.m.Data[off:off+cols], p.v.Data[off:off+cols])
			}
			continue
		}
		update(p.G.Data, p.W.Data, p.m.Data, p.v.Data)
	}
	for _, s := range ps.Scalars {
		if s.Frozen {
			continue
		}
		g := s.Grad
		s.m = a.Beta1*s.m + (1-a.Beta1)*g
		s.v = a.Beta2*s.v + (1-a.Beta2)*g*g
		mh := s.m / b1c
		vh := s.v / b2c
		s.Val -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
	}
}

// Reset clears the optimizer step counter and is used when the same
// parameters go through a second training phase.
func (a *Adam) Reset() { a.step = 0 }

func checkLen(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s length %d, want %d", what, got, want))
	}
}
