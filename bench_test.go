// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation (run `go test -bench=. -benchmem`), plus
// substrate micro-benchmarks. Each BenchmarkTableN/BenchmarkFigN bench runs
// the corresponding experiment once per iteration at a reduced dataset
// scale; the knowtrans CLI runs the same experiments at any scale.
//
// The heavyweight artifacts (pretrained bases, the upstream DP-LLM, the
// patch library) are built once and shared across benchmarks, exactly as
// the paper trains Jellyfish once and reuses it.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/akb"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/oracle"
	"repro/internal/tasks"
)

const benchScale = 0.06

var (
	zooOnce sync.Once
	zoo     *eval.Zoo
)

func benchZoo() *eval.Zoo {
	zooOnce.Do(func() { zoo = eval.NewZoo(1, benchScale) })
	return zoo
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	z := benchZoo()
	e, ok := eval.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var out *eval.Table
	for i := 0; i < b.N; i++ {
		out = e.Run(z, 1)
	}
	if out == nil || len(out.Rows) == 0 {
		b.Fatalf("experiment %s produced no rows", id)
	}
	if testing.Verbose() {
		b.Log("\n" + out.Render())
	}
}

// --- One benchmark per paper table/figure ------------------------------------

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }

// Reproduction-specific ablations (see internal/eval/ablations.go and the
// design-choice inventory in DESIGN.md).
func BenchmarkAblateSubstrate(b *testing.B) { runExperiment(b, "ablate-substrate") }
func BenchmarkAblateOracle(b *testing.B)    { runExperiment(b, "ablate-oracle") }

// --- Substrate micro-benchmarks ------------------------------------------------

// BenchmarkTrainStep measures one forward+backward pass of the DP-LM on an
// EM example — the unit of all fine-tuning cost.
func BenchmarkTrainStep(b *testing.B) {
	m := model.New(model.Config{Name: "bench", Hidden: model.Hidden7B, Seed: 1})
	bundle := datagen.ByKey("EM/Walmart-Amazon", 1, 0.05)
	ex := tasks.BuildExample(bundle.Spec(), bundle.DS.Train[0], nil)
	ps := m.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.ZeroGrad()
		m.Step(ex)
	}
}

// BenchmarkTrain measures a whole multi-epoch model.Train over a fixed
// 64-example EM set with the full backbone trainable: per-epoch example
// construction and encoding, every Step, clipping and the sparse-row Adam
// steps — the loop behind every upstream build, patch extraction and
// few-shot fine-tune, which BenchmarkTrainStep's single Step cannot see.
func BenchmarkTrain(b *testing.B) {
	m := model.New(model.Config{Name: "bench", Hidden: model.Hidden7B, Seed: 1})
	bundle := datagen.ByKey("EM/Walmart-Amazon", 1, 0.05)
	examples := make([]model.TrainExample, 64)
	for i := range examples {
		examples[i] = model.TrainExample{Spec: bundle.Spec(), Instance: bundle.DS.Train[i%len(bundle.DS.Train)]}
	}
	ps := m.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Train(m, examples, model.DefaultTrain(1), &ps)
	}
}

// BenchmarkInference measures one prediction without patches.
func BenchmarkInference(b *testing.B) {
	m := model.New(model.Config{Name: "bench", Hidden: model.Hidden7B, Seed: 1})
	bundle := datagen.ByKey("EM/Walmart-Amazon", 1, 0.05)
	ex := tasks.BuildExample(bundle.Spec(), bundle.DS.Test[0], nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(ex)
	}
}

// BenchmarkInferenceFused measures one prediction with the full 12-patch
// fusion attached — the marginal cost of SKC at inference time.
func BenchmarkInferenceFused(b *testing.B) {
	m := model.New(model.Config{Name: "bench", Hidden: model.Hidden7B, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		coef := &nn.Scalar{Val: 1.0 / 12}
		lora.Attach(fmt.Sprintf("p%d", i), m.LoraLayers(), lora.DefaultConfig(), coef, rng)
	}
	bundle := datagen.ByKey("EM/Walmart-Amazon", 1, 0.05)
	ex := tasks.BuildExample(bundle.Spec(), bundle.DS.Test[0], nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(ex)
	}
}

// serveBenchInstances builds the fixed micro-batch both ServePredict
// benchmarks answer: 8 test instances of one EM dataset, the serve hot
// path's unit of work at the default MaxBatch.
func serveBenchInstances() (tasks.Spec, []*data.Instance) {
	bundle := datagen.ByKey("EM/Walmart-Amazon", 1, 0.05)
	ins := make([]*data.Instance, 8)
	for i := range ins {
		ins[i] = bundle.DS.Test[i%len(bundle.DS.Test)]
	}
	return bundle.Spec(), ins
}

// BenchmarkServePredict measures the serve hot path's unit of work: one
// micro-batch of 8 predictions answered by the batched forward pass
// (shared candidate encoding, one matmul per layer per batch, pooled
// scratch). Answers are bit-identical to the serial path below; the ratio
// of the two ns/op numbers is the batching speedup check.sh gates on, and
// the -benchmem counters feed the allocation gate via `knowtrans obs diff`.
func BenchmarkServePredict(b *testing.B) {
	m := model.New(model.Config{Name: "bench", Hidden: model.Hidden7B, Seed: 1})
	spec, ins := serveBenchInstances()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchWith(spec, ins, nil)
	}
}

// BenchmarkServePredictSerial answers the same micro-batch one prediction
// at a time — the pre-batching serve path, kept as the benchmark baseline.
func BenchmarkServePredictSerial(b *testing.B) {
	m := model.New(model.Config{Name: "bench", Hidden: model.Hidden7B, Seed: 1})
	spec, ins := serveBenchInstances()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			m.PredictWith(spec, in, nil)
		}
	}
}

// BenchmarkFewShotTransfer measures a full SKC+AKB transfer to one dataset
// (excluding the shared artifact builds).
func BenchmarkFewShotTransfer(b *testing.B) {
	z := benchZoo()
	upstream := z.Upstream(eval.Size7B)
	patches := z.Patches(eval.Size7B)
	bundle := z.DownstreamByKey("EM/Walmart-Amazon")
	fewshot := bundle.DS.FewShot(rand.New(rand.NewSource(3)), eval.FewShotN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kt := core.NewKnowTrans(upstream, patches, core.WithOracle(oracle.New(int64(i))))
		if _, err := kt.Transfer(context.Background(), bundle.Kind, fewshot, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAKBSearch measures the AKB loop alone against a fixed model.
func BenchmarkAKBSearch(b *testing.B) {
	z := benchZoo()
	upstream := z.Upstream(eval.Size7B)
	bundle := z.DownstreamByKey("ED/Rayyan")
	fewshot := bundle.DS.FewShot(rand.New(rand.NewSource(4)), eval.FewShotN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		akb.Search(upstream, oracle.New(int64(i)), bundle.Kind, fewshot, nil, akb.DefaultConfig(int64(i)))
	}
}

// BenchmarkDatasetGeneration measures generating the full downstream suite.
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		datagen.Downstream(int64(i), benchScale)
	}
}

// BenchmarkNonLLMBaseline measures the classical per-task baselines.
func BenchmarkNonLLMBaseline(b *testing.B) {
	z := benchZoo()
	bundle := z.DownstreamByKey("ED/Beer")
	fewshot := bundle.DS.FewShot(rand.New(rand.NewSource(5)), eval.FewShotN)
	m := baselines.NonLLM{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := m.Adapt(&baselines.AdaptContext{Bundle: bundle, FewShot: fewshot, Seed: int64(i)})
		baselines.Evaluate(pred, bundle.Kind, bundle.DS.Test)
	}
}
