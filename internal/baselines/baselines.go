// Package baselines implements every comparison method of the paper's
// Section VII-A: the non-LLM per-task methods (Raha-, IPM-, SMAT-, Ditto-,
// Doduo-, MAVE-, Baran-style), the open-source DP-LLM tiers (Mistral,
// TableLLaMA, MELD, Jellyfish, Jellyfish-ICL), and the closed-source GPT
// tiers used with in-context learning. Each method adapts to a downstream
// dataset from the same few-shot budget KnowTrans gets.
package baselines

import (
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// Predictor answers instances of one downstream dataset.
type Predictor interface {
	Predict(in *data.Instance) string
}

// BatchPredictor is the optional batched face of a Predictor: one call
// answers a whole instance slice through the backbone's batched forward
// pass. Answers must be identical to calling Predict per instance; the
// returned slice may be scratch reused across calls.
type BatchPredictor interface {
	PredictBatch(ins []*data.Instance) []string
}

// AdaptContext is everything a method may use to adapt: the dataset bundle
// (for its task kind and seed knowledge — never its test labels), the
// few-shot labeled sample, and a seed.
type AdaptContext struct {
	Bundle  *datagen.Bundle
	FewShot []*data.Instance
	Seed    int64
	// Rec, when non-nil, is the recorder of the enclosing experiment cell;
	// methods thread it into the backbone clones they train so telemetry
	// nests under the cell's span (the parallel harness derives one
	// recorder per cell). Nil leaves each clone's inherited recorder alone.
	Rec *obs.Recorder
}

// Method is one comparison system.
type Method interface {
	Name() string
	Adapt(ctx *AdaptContext) Predictor
}

// Evaluate runs a predictor over a test set with the task's metric. A
// predictor that also implements BatchPredictor is scored through one
// batched call (bit-identical answers, one forward per micro-batch instead
// of one per instance); a wrong-length batch falls back to the serial loop.
func Evaluate(p Predictor, kind tasks.Kind, test []*data.Instance) float64 {
	spec := tasks.SpecFor(kind)
	metric := tasks.NewMetric(spec.Metric)
	if bp, ok := p.(BatchPredictor); ok {
		if got := bp.PredictBatch(test); len(got) == len(test) {
			for i, g := range got {
				metric.Add(g, test[i].GoldText())
			}
			return metric.Score()
		}
	}
	for _, in := range test {
		metric.Add(p.Predict(in), in.GoldText())
	}
	return metric.Score()
}

// modelPredictor wraps a DP-LM (optionally with fixed knowledge) as a
// Predictor.
type modelPredictor struct {
	m    *model.Model
	spec tasks.Spec
	k    *tasks.Knowledge
}

func (p *modelPredictor) Predict(in *data.Instance) string {
	return p.m.PredictWith(p.spec, in, p.k)
}

// PredictBatch answers the slice through the model's batched forward —
// the BatchPredictor face Evaluate prefers.
func (p *modelPredictor) PredictBatch(ins []*data.Instance) []string {
	return p.m.PredictBatchWith(p.spec, ins, p.k)
}

// FineTuned is the standard "fine-tune the whole model on the few-shot
// data" method applied to any backbone: the paper's Mistral, TableLLaMA and
// Jellyfish rows all follow this protocol.
type FineTuned struct {
	MethodName string
	// Backbone returns a fresh clone of the backbone to fine-tune.
	Backbone func() *model.Model
}

// Name implements Method.
func (f *FineTuned) Name() string { return f.MethodName }

// Adapt implements Method: full fine-tuning of the clone on the few-shot
// examples with the shared few-shot recipe (model.FewShotTrain).
func (f *FineTuned) Adapt(ctx *AdaptContext) Predictor {
	m := f.Backbone()
	if ctx.Rec != nil {
		m.Rec = ctx.Rec
	}
	ps := m.Params()
	model.Train(m, model.ExamplesFrom(ctx.Bundle.Kind, ctx.FewShot, nil), model.FewShotTrain(ctx.Seed), &ps)
	return &modelPredictor{m: m, spec: ctx.Bundle.Spec()}
}
