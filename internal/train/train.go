// Package train orchestrates TGNN training and evaluation: mini-batch
// construction through the bi-level sampling pipeline (neighbor finder →
// adaptive neighbor sampler), feature slicing through the cached feature
// stores, the self-supervised link-prediction objective, co-training of the
// adaptive sampler (Algorithm 1), and MRR evaluation (§IV-A).
//
// The per-phase runtime breakdown mirrors Table III's columns: NF (neighbor
// finding), AS (adaptive neighbor sampling), FS (feature slicing, real copy
// time plus the modeled PCIe/VRAM transfer time), and PP (propagation).
package train

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"taser/internal/adaptive"
	"taser/internal/autograd"
	"taser/internal/cache"
	"taser/internal/datasets"
	"taser/internal/device"
	"taser/internal/featstore"
	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/nn"
	"taser/internal/sampler"
	"taser/internal/stats"
)

// ModelKind selects the backbone.
type ModelKind string

const (
	// ModelTGAT is the 2-layer attention backbone (uniform finder policy).
	ModelTGAT ModelKind = "tgat"
	// ModelGraphMixer is the 1-layer mixer backbone (most-recent policy).
	ModelGraphMixer ModelKind = "graphmixer"
)

// FinderKind selects the temporal neighbor finder.
type FinderKind string

const (
	// FinderOrigin is the sequential reference finder.
	FinderOrigin FinderKind = "origin"
	// FinderTGL is the chronological-order parallel CPU finder.
	FinderTGL FinderKind = "tgl"
	// FinderGPU is TASER's block-parallel finder on the device simulator.
	FinderGPU FinderKind = "gpu"
)

// Config holds every knob of a training run. Zero values are filled with the
// paper's defaults by Normalize.
type Config struct {
	Model     ModelKind
	Finder    FinderKind
	Hidden    int // hidden/embedding width (paper: 100; scaled default 32)
	TimeDim   int
	N         int // supporting neighbors n (paper default 10)
	M         int // candidate budget m for adaptive sampling (paper default 25)
	BatchSize int // positive edges per batch (paper: 600; scaled default 200)
	Epochs    int
	LR        float64

	// PrefetchDepth bounds how many upcoming mini-batches the pipelined
	// training loop (Pipeline, TrainEpochPipelined) stages ahead of the
	// consumer: prepared batches wait in a channel of this capacity while one
	// more may be under construction, so with AdaBatch the importance
	// selector's draws are at most PrefetchDepth+1 steps stale (DESIGN.md).
	// Default 2 (double buffering). The synchronous TrainStep ignores it.
	PrefetchDepth int

	AdaBatch    bool             // temporal adaptive mini-batch selection (§III-A)
	AdaNeighbor bool             // temporal adaptive neighbor sampling (§III-B)
	Decoder     adaptive.Decoder // sampler head
	// AdaAllLayers applies adaptive neighbor sampling at every hop
	// (Algorithm 1 as written); the default applies it at the outermost hop
	// only, which preserves the accuracy mechanism at a fraction of the
	// cost (see DESIGN.md).
	AdaAllLayers bool

	CacheRatio  float64 // fraction of edge-feature rows resident in VRAM
	CachePolicy string  // "freq" (default, Algorithm 3) or "lru" (ablation)

	// FinderPolicy overrides the static sampling policy ("" = the backbone's
	// default: uniform for TGAT, most-recent for GraphMixer). "invts" is
	// TGAT's inverse-timespan heuristic, the human-defined denoising
	// baseline the paper contrasts adaptive sampling against (§I).
	FinderPolicy string

	// DisableTE/FE/IE switch off individual neighbor-encoder components for
	// the §IV-B encoder ablation (zero value = enabled).
	DisableTE, DisableFE, DisableIE bool

	EvalNegatives int // MRR negatives (paper: 49)
	MaxEvalEdges  int // cap on evaluated edges (0 = all)

	Seed uint64
}

// Normalize fills defaults in place and returns the config for chaining.
func (c Config) Normalize() Config {
	if c.Model == "" {
		c.Model = ModelTGAT
	}
	if c.Finder == "" {
		c.Finder = FinderGPU
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.TimeDim == 0 {
		c.TimeDim = 16
	}
	if c.N == 0 {
		c.N = 10
	}
	if c.M == 0 {
		c.M = 25
	}
	if c.BatchSize == 0 {
		c.BatchSize = 200
	}
	if c.PrefetchDepth == 0 {
		c.PrefetchDepth = 2
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.EvalNegatives == 0 {
		c.EvalNegatives = 49
	}
	return c
}

// Validate rejects values no run can mean: a negative (or NaN) size, count or
// rate — zero is fine, it selects Normalize's default or, for MaxEvalEdges,
// "all" — a cache ratio outside [0, 1], and a model, finder or policy name
// New has no case for ("" selects the default). New calls it; the commands
// call it first, so a bad flag is a usage error and not a panic mid-run.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Hidden", float64(c.Hidden)}, {"TimeDim", float64(c.TimeDim)},
		{"N", float64(c.N)}, {"M", float64(c.M)},
		{"BatchSize", float64(c.BatchSize)}, {"Epochs", float64(c.Epochs)},
		{"PrefetchDepth", float64(c.PrefetchDepth)}, {"EvalNegatives", float64(c.EvalNegatives)},
		{"MaxEvalEdges", float64(c.MaxEvalEdges)}, {"LR", c.LR},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("train: Config.%s must not be negative (got %v)", f.name, f.v)
		}
	}
	if !(c.CacheRatio >= 0 && c.CacheRatio <= 1) {
		return fmt.Errorf("train: Config.CacheRatio %v is outside [0, 1]", c.CacheRatio)
	}
	for _, f := range []struct {
		name, v string
		known   []string
	}{
		{"Model", string(c.Model), []string{string(ModelTGAT), string(ModelGraphMixer)}},
		{"Finder", string(c.Finder), []string{string(FinderOrigin), string(FinderTGL), string(FinderGPU)}},
		{"CachePolicy", c.CachePolicy, []string{"freq", "lru"}},
		{"FinderPolicy", c.FinderPolicy, []string{"uniform", "recent", "invts"}},
	} {
		if f.v != "" && !slices.Contains(f.known, f.v) {
			return fmt.Errorf("train: Config.%s %q is unknown (known: %s)", f.name, f.v, strings.Join(f.known, ", "))
		}
	}
	return nil
}

// Trainer binds a dataset, a backbone, the sampling pipeline and feature
// stores into a runnable training/evaluation harness.
type Trainer struct {
	Cfg Config
	DS  *datasets.Dataset

	linkStep  // Model, Pred, OptModel and the model update (step.go)
	buildCore // EdgeStore, NodeStore, Timer and the static build path (core.go)

	Selector *adaptive.MiniBatchSelector // nil unless AdaBatch
	Sampler  *adaptive.NeighborSampler   // nil unless AdaNeighbor

	// Finder serves the producer side of the pipeline; finderC is an
	// independent instance (own RNG streams / call counter / TGL pointer
	// array) for the hops resolved consumer-side when adaptive neighbor
	// sampling is on. Dedicating an instance — and a mutex, see
	// buildCore.sample — to each side keeps every finder's sampling stream a
	// function of its own call order, so pipelined adaptive training is
	// deterministic for a fixed seed and bitwise-equal to the synchronous
	// loop, instead of depending on how producer and consumer interleave on
	// one shared stream.
	Finder    sampler.Finder
	finderC   sampler.Finder
	finderMuP sync.Mutex // guards Finder
	finderMuC sync.Mutex // guards finderC

	Xfer       *device.XferStats
	OptSampler *nn.Adam

	rng    *mathx.RNG
	cursor int // chronological batch cursor (baseline mini-batching)

	posLogits []float64 // consumer-side step scratch

	// Reusable arena-backed autograd graphs: gM records the model
	// forward–backward, gS the adaptive sampler's (a separate graph so the
	// sample loss backward never replays model ops). Both are owned by the
	// consumer side (consume, finishBatch, eval), which is serialized by
	// construction.
	gM, gS graphHolder

	// freshGraphs disables graph/arena reuse: every checkout returns a new
	// unpooled graph (see graphHolder.checkout).
	freshGraphs bool
}

// modelGraph checks out the model graph for one pass: recording for a
// training step, forward-only for evaluation.
func (t *Trainer) modelGraph(forwardOnly bool) *autograd.Graph {
	return t.gM.checkout(forwardOnly, t.freshGraphs)
}

// samplerGraph is modelGraph's counterpart for the adaptive sampler's tape.
func (t *Trainer) samplerGraph(forwardOnly bool) *autograd.Graph {
	return t.gS.checkout(forwardOnly, t.freshGraphs)
}

// New builds a trainer for the dataset under cfg.
func New(cfg Config, ds *datasets.Dataset) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	rng := mathx.NewRNG(cfg.Seed)
	nodeDim := ds.Spec.NodeDim
	edgeDim := ds.Spec.EdgeDim
	t := &Trainer{Cfg: cfg, DS: ds, rng: rng, Xfer: device.NewXferStats()}
	t.buildCore = buildCore{
		Timer: stats.NewTimer(), pool: newBuildPool(),
		budget: cfg.N, nodeDim: nodeDim, edgeDim: edgeDim,
	}

	switch cfg.Model {
	case ModelTGAT:
		t.Model = models.NewTGAT(models.TGATConfig{
			NodeDim: nodeDim, EdgeDim: edgeDim, HiddenDim: cfg.Hidden,
			TimeDim: cfg.TimeDim, Layers: 2, Budget: cfg.N,
		}, rng.Split())
		t.policy = sampler.Uniform
	case ModelGraphMixer:
		t.Model = models.NewGraphMixer(models.GraphMixerConfig{
			NodeDim: nodeDim, EdgeDim: edgeDim, HiddenDim: cfg.Hidden,
			TimeDim: cfg.TimeDim, Budget: cfg.N,
		}, rng.Split())
		t.policy = sampler.MostRecent
	default:
		return nil, fmt.Errorf("train: unknown model %q", cfg.Model)
	}
	t.layers = t.Model.NumLayers()
	t.Pred = models.NewEdgePredictor(cfg.Hidden, rng.Split())

	switch cfg.FinderPolicy {
	case "":
		// keep the backbone default set above
	case "uniform":
		t.policy = sampler.Uniform
	case "recent":
		t.policy = sampler.MostRecent
	case "invts":
		t.policy = sampler.InverseTimespan
	default:
		return nil, fmt.Errorf("train: unknown finder policy %q", cfg.FinderPolicy)
	}

	// finderC's randomness derives from cfg.Seed directly rather than from
	// rng.Split(), so adding the second instance does not advance the
	// trainer stream and every downstream seed (selector, sampler, negative
	// draws) stays exactly where it was before finderC existed.
	switch cfg.Finder {
	case FinderOrigin:
		t.Finder = sampler.NewOriginFinder(ds.TCSR, rng.Split())
		t.finderC = sampler.NewOriginFinder(ds.TCSR, mathx.NewRNG(cfg.Seed^0xc0de))
	case FinderTGL:
		t.Finder = sampler.NewTGLFinder(ds.TCSR, rng.Split())
		t.finderC = sampler.NewTGLFinder(ds.TCSR, mathx.NewRNG(cfg.Seed^0xc0de))
	case FinderGPU:
		t.Finder = sampler.NewGPUFinder(ds.TCSR, device.New(), cfg.Seed^0xabcd)
		t.finderC = sampler.NewGPUFinder(ds.TCSR, device.New(), cfg.Seed^0xc0de)
	default:
		return nil, fmt.Errorf("train: unknown finder %q", cfg.Finder)
	}
	if cfg.AdaBatch && !t.Finder.ArbitraryOrder() {
		return nil, fmt.Errorf("train: finder %q requires chronological order and "+
			"cannot serve adaptive mini-batch selection (§III-C)", cfg.Finder)
	}

	// Feature stores: edge features behind the (optional) frequency cache,
	// node features resident (they are small on every dataset, §III-D).
	var pol cache.Policy
	if cfg.CacheRatio > 0 && edgeDim > 0 {
		k := int(cfg.CacheRatio * float64(ds.EdgeFeat.Rows))
		if k > 0 {
			switch cfg.CachePolicy {
			case "", "freq":
				pol = cache.NewFrequency(ds.EdgeFeat.Rows, k, cache.PaperEpsilon)
			case "lru":
				pol = cache.NewLRU(k)
			default:
				return nil, fmt.Errorf("train: unknown cache policy %q", cfg.CachePolicy)
			}
		}
	}
	t.EdgeStore = featstore.New(ds.EdgeFeat, pol, t.Xfer)
	t.NodeStore = featstore.New(ds.NodeFeat, nil, t.Xfer)

	if cfg.AdaBatch {
		t.Selector = adaptive.NewMiniBatchSelector(ds.TrainEnd, rng.Split())
	}
	if cfg.AdaNeighbor {
		t.Sampler = adaptive.NewSampler(adaptive.SamplerConfig{
			NodeDim: nodeDim, EdgeDim: edgeDim,
			FeatDim: cfg.TimeDim, TimeDim: cfg.TimeDim, FreqDim: cfg.TimeDim,
			M: cfg.M, Decoder: cfg.Decoder,
			UseTE: !cfg.DisableTE, UseFE: !cfg.DisableFE, UseIE: !cfg.DisableIE,
		}, rng.Split())
		t.OptSampler = nn.NewAdam(t.Sampler.Params(), cfg.LR)
		t.OptSampler.ClipNorm = clipNorm
	}

	params := append(t.Model.Params(), t.Pred.Params()...)
	t.OptModel = nn.NewAdam(params, cfg.LR)
	t.OptModel.ClipNorm = clipNorm
	return t, nil
}

// negativeDst draws a negative destination from the trainer's RNG stream.
func (t *Trainer) negativeDst() int32 {
	return negativeDst(t.rng, t.DS.Spec.NumSrc, t.DS.Spec.NumNodes)
}

// time runs f and charges its wall time to bucket.
func (t *Trainer) time(bucket string, f func()) {
	start := time.Now()
	f()
	t.charge(bucket, start, 0)
}
