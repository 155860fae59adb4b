// Package model implements the DP-LM substrate that stands in for the
// paper's DP-LLMs (Jellyfish, Mistral, TableLLaMA, the GPT tiers): a sparse
// feature-hashing dual-encoder scorer trained with softmax cross-entropy
// over candidate answers (the ranking realization of Eq. 3's conditional
// language modeling — see DESIGN.md).
//
// The model scores a prompt x against each candidate answer c_k as
//
//	s_k = f(x)·g(c_k)/√h + trust·hint_k
//
// where f and g are two-layer tanh encoders over hashed prompt/candidate
// features and hint_k is the knowledge-rule support computed by
// tasks.Knowledge.Hints. The trust scalar is trainable and starts at zero:
// the model only "follows instructions" to the degree upstream instruction
// tuning taught it to, which is the substrate's analog of an
// instruction-tuned LLM acting on stated knowledge.
//
// Every linear layer accepts LoRA attachments, so SKC's knowledge patches
// (internal/lora, internal/skc) apply to the full model.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/text"
)

// Config fixes a model's architecture. Name is a human-readable identity
// used in experiment output ("Jellyfish-7B", "GPT-4o", ...).
type Config struct {
	Name   string
	Dim    int // hashed feature dimensionality
	Hidden int // encoder width; the analog of parameter count
	Seed   int64
}

// Preset widths: the paper's model sizes map to encoder widths, preserving
// the capacity ordering 7B < 8B < 13B < GPT-3.5 < GPT-4o ≤ GPT-4.
const (
	Hidden7B    = 48
	Hidden8B    = 56
	Hidden13B   = 80
	HiddenGPT35 = 96
	HiddenGPT4o = 128
	HiddenGPT4  = 128
)

// DefaultDim is the default feature dimensionality.
const DefaultDim = text.DefaultDim

// Model is one DP-LM instance. A Model is not safe for concurrent use; the
// experiment harness runs models sequentially.
type Model struct {
	Cfg    Config
	Hasher *text.Hasher

	inEmb   *nn.Embedding
	inAct1  *nn.Tanh
	inDense *nn.Dense
	inAct2  *nn.Tanh

	candEmb   *nn.Embedding
	candAct1  *nn.Tanh
	candDense *nn.Dense
	candAct2  *nn.Tanh

	// Trust is the learned weight on knowledge-rule hints.
	Trust *nn.Scalar

	// Rec, when non-nil, receives forward/predict counters and train-step
	// timings. All instrumentation is nil-safe, so the zero value stays
	// observability-free at zero cost (see internal/obs).
	Rec *obs.Recorder

	candCache map[string]*tensor.Sparse
	scratch   scratch
	batch     *batchScratch
}

type scratch struct {
	scores  tensor.Vec
	dscores tensor.Vec
	gs      []tensor.Vec
	f       tensor.Vec // Step's copy of the input encoding
	df      tensor.Vec
	dg      tensor.Vec
}

// New constructs a randomly initialized model.
func New(cfg Config) *Model {
	if cfg.Dim == 0 {
		cfg.Dim = DefaultDim
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = Hidden7B
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := shell(cfg)
	m.inEmb = nn.NewEmbedding("in.emb", cfg.Dim, cfg.Hidden, rng)
	m.inDense = nn.NewDense("in.dense", cfg.Hidden, cfg.Hidden, rng)
	m.candEmb = nn.NewEmbedding("cand.emb", cfg.Dim, cfg.Hidden, rng)
	m.candDense = nn.NewDense("cand.dense", cfg.Hidden, cfg.Hidden, rng)
	return m
}

// shell returns a model with everything but its linear layers.
func shell(cfg Config) *Model {
	return &Model{
		Cfg:       cfg,
		Hasher:    text.NewHasher(cfg.Dim),
		inAct1:    &nn.Tanh{},
		inAct2:    &nn.Tanh{},
		candAct1:  &nn.Tanh{},
		candAct2:  &nn.Tanh{},
		Trust:     &nn.Scalar{Name: "trust"},
		candCache: make(map[string]*tensor.Sparse),
	}
}

// Params returns the base parameters including every attached patch factor
// and the trust scalar. Frozen flags are respected by the optimizer.
func (m *Model) Params() nn.ParamSet {
	var ps nn.ParamSet
	ps.Add(m.inEmb.Params()...)
	ps.Add(m.inDense.Params()...)
	ps.Add(m.candEmb.Params()...)
	ps.Add(m.candDense.Params()...)
	ps.AddScalar(m.Trust)
	return ps
}

// BaseParams returns only the backbone matrices (no patches), used for
// freezing and for snapshotting.
func (m *Model) BaseParams() []*nn.Param {
	return []*nn.Param{m.inEmb.E, m.inDense.W, m.inDense.B, m.candEmb.E, m.candDense.W, m.candDense.B}
}

// SetBaseFrozen freezes or unfreezes the backbone (not patches, not trust).
func (m *Model) SetBaseFrozen(frozen bool) {
	for _, p := range m.BaseParams() {
		p.Frozen = frozen
	}
}

// LoraLayers exposes the adaptable layers for lora.Attach, keyed by stable
// names so patches extracted on one instance load into another.
func (m *Model) LoraLayers() map[string]lora.Layer {
	return map[string]lora.Layer{
		"in.emb":     m.inEmb,
		"in.dense":   m.inDense,
		"cand.emb":   m.candEmb,
		"cand.dense": m.candDense,
	}
}

// EncodeInput hashes prompt segments into the input feature space.
func (m *Model) EncodeInput(segs []text.Segment) *tensor.Sparse {
	return m.Hasher.Encode(segs...)
}

func (m *Model) encodeCand(c string) *tensor.Sparse {
	if v, ok := m.candCache[c]; ok {
		return v
	}
	v := m.Hasher.Encode(text.Segment{Text: c, Weight: 1})
	if len(m.candCache) > 1<<16 {
		m.candCache = make(map[string]*tensor.Sparse)
	}
	m.candCache[c] = v
	return v
}

func (m *Model) forwardInput(x *tensor.Sparse) tensor.Vec {
	h := m.inEmb.Forward(x)
	h = m.inAct1.Forward(h)
	h = m.inDense.Forward(h)
	return m.inAct2.Forward(h)
}

func (m *Model) backwardInput(df tensor.Vec) {
	d := m.inAct2.Backward(df)
	d = m.inDense.Backward(d)
	d = m.inAct1.Backward(d)
	m.inEmb.Backward(d)
}

func (m *Model) forwardCand(c *tensor.Sparse) tensor.Vec {
	h := m.candEmb.Forward(c)
	h = m.candAct1.Forward(h)
	h = m.candDense.Forward(h)
	return m.candAct2.Forward(h)
}

func (m *Model) backwardCand(dg tensor.Vec) {
	d := m.candAct2.Backward(dg)
	d = m.candDense.Backward(d)
	d = m.candAct1.Backward(d)
	m.candEmb.Backward(d)
}

// Scores runs the forward pass on an example and returns raw candidate
// scores. The returned slice is scratch reused across calls.
func (m *Model) Scores(ex *tasks.Example) tensor.Vec {
	m.Rec.Count("model.forward", 1)
	n := len(ex.Candidates)
	if n == 0 {
		panic(fmt.Sprintf("model: example %q has no candidates", ex.Prompt))
	}
	if cap(m.scratch.scores) < n {
		m.scratch.scores = tensor.NewVec(n)
		m.scratch.dscores = tensor.NewVec(n)
	}
	scores := m.scratch.scores[:n]
	x := m.EncodeInput(ex.Segments)
	f := m.forwardInput(x)
	inv := 1 / math.Sqrt(float64(m.Cfg.Hidden))
	for k, c := range ex.Candidates {
		g := m.forwardCand(m.encodeCand(c))
		s := f.Dot(g) * inv
		if ex.Hints != nil {
			s += m.Trust.Val * ex.Hints[k]
		}
		scores[k] = s
	}
	return scores
}

// Predict returns the index of the highest-scoring candidate; ties break
// deterministically toward the lower index. NaN scores are skipped (a NaN in
// slot 0 used to poison every comparison and silently elect candidate 0) and
// surface in the model.nan_scores counter; an all-NaN row falls back to 0.
func (m *Model) Predict(ex *tasks.Example) int {
	m.Rec.Count("model.predict", 1)
	scores := m.Scores(ex)
	best, nans := nanSafeArgmax(scores)
	if nans > 0 {
		m.Rec.Count("model.nan_scores", int64(nans))
	}
	return best
}

// Loss computes the softmax cross-entropy of an example without touching
// gradients.
func (m *Model) Loss(ex *tasks.Example) float64 {
	scores := m.Scores(ex)
	d := m.scratch.dscores[:len(scores)]
	return nn.SoftmaxCE(scores, ex.Gold, d)
}

// Step runs forward + backward on one example, accumulating gradients into
// whatever parameters are unfrozen (backbone, patches, λ, trust), and
// returns the loss. The caller owns ZeroGrad and the optimizer step.
func (m *Model) Step(ex *tasks.Example) float64 {
	return m.step(ex, m.EncodeInput(ex.Segments))
}

// step is Step on an example whose input encoding x is already known.
func (m *Model) step(ex *tasks.Example, x *tensor.Sparse) float64 {
	m.Rec.Count("model.train_step", 1)
	n := len(ex.Candidates)
	f := append(m.scratch.f[:0], m.forwardInput(x)...)
	m.scratch.f = f
	inv := 1 / math.Sqrt(float64(m.Cfg.Hidden))

	if cap(m.scratch.scores) < n {
		m.scratch.scores = tensor.NewVec(n)
		m.scratch.dscores = tensor.NewVec(n)
	}
	scores := m.scratch.scores[:n]
	for len(m.scratch.gs) < n {
		m.scratch.gs = append(m.scratch.gs, nil)
	}
	gs := m.scratch.gs[:n]
	for k, c := range ex.Candidates {
		g := m.forwardCand(m.encodeCand(c))
		if gs[k] == nil || len(gs[k]) != len(g) {
			gs[k] = g.Clone()
		} else {
			copy(gs[k], g)
		}
		s := f.Dot(g) * inv
		if ex.Hints != nil {
			s += m.Trust.Val * ex.Hints[k]
		}
		scores[k] = s
	}
	d := m.scratch.dscores[:n]
	loss := nn.SoftmaxCE(scores, ex.Gold, d)

	// Input-side gradient: df = Σ_k d_k · g_k · inv.
	if cap(m.scratch.df) < m.Cfg.Hidden {
		m.scratch.df = tensor.NewVec(m.Cfg.Hidden)
	}
	df := m.scratch.df[:m.Cfg.Hidden]
	df.Zero()
	for k := range gs {
		df.Axpy(d[k]*inv, gs[k])
	}
	// Candidate-side gradients: re-run each candidate forward so the layer
	// caches hold candidate k's activations, then backprop d_k·f·inv.
	if cap(m.scratch.dg) < m.Cfg.Hidden {
		m.scratch.dg = tensor.NewVec(m.Cfg.Hidden)
	}
	dg := m.scratch.dg[:m.Cfg.Hidden]
	for k, c := range ex.Candidates {
		if d[k] == 0 {
			continue
		}
		m.forwardCand(m.encodeCand(c))
		copy(dg, f)
		dg.Scale(d[k] * inv)
		m.backwardCand(dg)
		if ex.Hints != nil && !m.Trust.Frozen {
			m.Trust.Grad += d[k] * ex.Hints[k]
		}
	}
	// Trust gradient for candidates whose d_k was zero is zero; nothing to add.
	// Input side last (layer caches still hold the input activations? No —
	// forwardCand overwrote only candidate layers; input layers still cache x).
	m.backwardInput(df)
	return loss
}

// PredictWith serializes an instance under the given knowledge and returns
// the model's answer: the serial reference the batched PredictBatchWith
// (which satisfies akb.Predictor) is bit-identical to.
func (m *Model) PredictWith(spec tasks.Spec, in *data.Instance, k *tasks.Knowledge) string {
	ex := tasks.BuildExample(spec, in, k)
	return ex.Candidates[m.Predict(ex)]
}

// Evaluate scores the model on instances with the given knowledge and
// returns the task metric on the 100-point scale. It runs the batched
// forward path (bit-identical to the serial per-instance loop).
func (m *Model) Evaluate(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) float64 {
	metric := tasks.NewMetric(spec.Metric)
	for i, ans := range m.PredictBatchWith(spec, ins, k) {
		metric.Add(ans, ins[i].GoldText())
	}
	return metric.Score()
}
