package train

import (
	"fmt"

	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/nn"
	"taser/internal/sampler"
	"taser/internal/tensor"
	"taser/internal/tgraph"
)

// FineTuneConfig binds a FineTuner to a model pair and a graph. Model and
// Pred are cloned at construction: the fine-tuner trains its own copies, so
// the originals (typically the ones a serving engine forwards with) are
// never written concurrently with reads.
type FineTuneConfig struct {
	Model models.TGNN           // pretrained backbone (cloned, not mutated)
	Pred  *models.EdgePredictor // pretrained decoder (cloned, not mutated)
	Infer InferConfig           // graph + build-path binding (Layers filled from Model)

	LR float64 // Adam learning rate (default 1e-4: gentler than pretraining)

	NumNodes int // negative-sampling id space
	NumSrc   int // bipartite: negatives drawn from [NumSrc, NumNodes); 0 = any node
	Seed     uint64
}

// FineTuner runs continual-learning steps on streamed events: the offline
// Trainer's model update (linkStep.update — the same function, not a copy)
// on minibatches assembled through the pooled InferenceBuilder against an
// arbitrary (typically live-serving) adjacency snapshot instead of a frozen
// dataset. Online Steps on the same events, graph and starting parameters
// are bitwise-equal to offline TrainSteps
// (TestFinetuneStepMatchesOfflineTrainStep).
//
// Like the InferenceBuilder it owns, a FineTuner is single-goroutine state:
// the online fine-tuning loop (internal/finetune) serializes Step, SwapGraph
// and Capture on its own goroutine.
type FineTuner struct {
	cfg     FineTuneConfig
	step    linkStep // the fine-tuner's own model, decoder and optimizer
	builder *InferenceBuilder
	rng     *mathx.RNG

	roots []sampler.Target // step scratch, reused like linkStep's
}

// NewFineTuner clones cfg.Model/cfg.Pred and binds the pooled build path to
// cfg.Infer's graph. Infer.Layers is overridden by the model's own depth.
func NewFineTuner(cfg FineTuneConfig) (*FineTuner, error) {
	if cfg.Model == nil || cfg.Pred == nil {
		return nil, fmt.Errorf("train: FineTuneConfig needs Model and Pred")
	}
	if cfg.NumNodes <= 0 {
		return nil, fmt.Errorf("train: FineTuneConfig.NumNodes must be positive")
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-4
	}
	cfg.Infer.Layers = cfg.Model.NumLayers()
	if cfg.Infer.Seed == 0 {
		cfg.Infer.Seed = cfg.Seed
	}
	ft := &FineTuner{cfg: cfg, rng: mathx.NewRNG(cfg.Seed)}
	ft.step.Model, ft.step.Pred = cfg.Model.Clone(), cfg.Pred.Clone()
	b, err := NewInferenceBuilder(cfg.Infer)
	if err != nil {
		return nil, err
	}
	ft.builder = b
	ft.step.OptModel = nn.NewAdam(append(ft.step.Model.Params(), ft.step.Pred.Params()...), cfg.LR)
	ft.step.OptModel.ClipNorm = clipNorm
	return ft, nil
}

// Model returns the fine-tuner's own (mutating) model copy.
func (f *FineTuner) Model() models.TGNN { return f.step.Model }

// Pred returns the fine-tuner's own (mutating) decoder copy.
func (f *FineTuner) Pred() *models.EdgePredictor { return f.step.Pred }

// SwapGraph retargets the build path at a new adjacency snapshot; the buffer
// pool, arena graph and optimizer state all survive the swap (see
// InferenceBuilder.SwapGraph).
func (f *FineTuner) SwapGraph(tcsr tgraph.Adjacency, edgeFeat *tensor.Matrix) error {
	return f.builder.SwapGraph(tcsr, edgeFeat)
}

// Capture snapshots the fine-tuner's current parameters as an immutable
// versioned WeightSet, ready for lock-free publication into a serving
// engine.
func (f *FineTuner) Capture(version uint64) *models.WeightSet {
	return models.CaptureWeights(version, f.step.Model, f.step.Pred)
}

// Step runs one fine-tune iteration on a batch of streamed events: roots
// [srcs | dsts | negatives] at the events' own timestamps, one pooled build,
// and the model update on the builder's reusable arena graph, applied to the
// fine-tuner's parameter copies. negs supplies the negative destinations
// explicitly (len(events)); nil draws them from the fine-tuner's RNG in
// batch order, exactly as the offline loop draws them. Returns the batch
// loss.
func (f *FineTuner) Step(events []tgraph.Event, negs []int32) float64 {
	b := len(events)
	if b == 0 {
		return 0
	}
	if negs != nil && len(negs) != b {
		panic(fmt.Sprintf("train: FineTuner.Step got %d negatives for %d events", len(negs), b))
	}
	f.roots = grow(f.roots, 3*b)
	for i, ev := range events {
		var neg int32
		if negs != nil {
			neg = negs[i]
		} else {
			neg = negativeDst(f.rng, f.cfg.NumSrc, f.cfg.NumNodes)
		}
		setRootTriple(f.roots, i, ev, neg)
	}
	mb := f.builder.Build(f.roots)
	loss, _, _ := f.step.update(f.builder.Graph(), mb, b)
	f.builder.Release(mb)
	return loss
}
