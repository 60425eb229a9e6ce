package train

import (
	"fmt"

	"taser/internal/autograd"
	"taser/internal/device"
	"taser/internal/featstore"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/tensor"
	"taser/internal/tgraph"
)

// InferConfig binds an InferenceBuilder to a graph and a model shape. TCSR
// accepts any packed adjacency layout — the dataset's flat T-CSR or the
// chunked AppendableTCSR an online ingest path publishes incrementally.
type InferConfig struct {
	TCSR     tgraph.Adjacency
	NodeFeat *tensor.Matrix // static node features (nil or zero-width when absent)
	EdgeFeat *tensor.Matrix // per-event edge features, rows aligned with event ids

	Layers int // model hop depth (TGAT: 2, GraphMixer: 1)
	Budget int // supporting neighbors per hop (n)
	// Policy is the static sampling policy. The zero value is sampler.Uniform,
	// which draws a fresh random neighborhood per build; serving sets
	// sampler.MostRecent, the deterministic policy.
	Policy sampler.Policy
	Seed   uint64
}

// InferenceBuilder is the static build path (buildCore) detached from any
// Trainer: it binds a neighbor finder over an arbitrary T-CSR — e.g. an
// online serving snapshot — plus node/edge feature stores, and builds
// non-adaptive (static-policy) minibatches for arbitrary roots, with the
// same pooled buffers and the byte-identical kernel the offline loop uses.
// The finder is always the GPU finder: roots arrive in arbitrary time order,
// which the chronological TGL finder cannot serve.
//
// The online serving subsystem (internal/serve) creates one per engine and
// retargets it at each published snapshot with SwapGraph. The buffer pool
// survives swaps: it files buffers by capacity, which depends on the batch
// size and the model's shape, not on the graph, so steady-state serving
// recycles the same buffers while the graph grows underneath.
//
// A builder is single-goroutine state, unguarded: Build, Release, SwapGraph
// and the graph checkouts must not run concurrently. Its owners serialize
// them — a serving engine's scheduler goroutine, and the fine-tuning loop,
// whose rounds hold the tuner's runMu — which is also what keeps the
// finder's sampling stream well-defined.
type InferenceBuilder struct {
	// Memo, when set, is asked about every target of the hop under the top
	// (Build); nil builds every target.
	Memo Memo

	core   buildCore
	seed   uint64
	finder sampler.Finder

	g graphHolder
}

// Graph checks out the builder's reusable arena-backed autograd graph for
// one recording forward–backward pass (the fine-tuner's); see graphHolder
// for the ownership contract. Like Build/SwapGraph, it is owned by a single
// goroutine.
func (b *InferenceBuilder) Graph() *autograd.Graph { return b.g.checkout(false, false) }

// ForwardGraph is Graph for a pass that never calls Backward: the same
// graph, checked out forward-only. The serving scheduler pairs each Build
// with one ForwardGraph checkout.
func (b *InferenceBuilder) ForwardGraph() *autograd.Graph { return b.g.checkout(true, false) }

// NewInferenceBuilder validates cfg and builds the initial finder and stores.
func NewInferenceBuilder(cfg InferConfig) (*InferenceBuilder, error) {
	if cfg.TCSR == nil {
		return nil, fmt.Errorf("train: InferConfig.TCSR is required")
	}
	if cfg.Layers <= 0 || cfg.Budget <= 0 {
		return nil, fmt.Errorf("train: InferConfig needs positive Layers (%d) and Budget (%d)",
			cfg.Layers, cfg.Budget)
	}
	if cfg.NodeFeat == nil {
		cfg.NodeFeat = tensor.New(cfg.TCSR.NumNodes(), 0)
	}
	b := &InferenceBuilder{seed: cfg.Seed}
	b.core = buildCore{
		NodeStore: featstore.New(cfg.NodeFeat, nil, nil), pool: newBuildPool(),
		policy: cfg.Policy, layers: cfg.Layers, budget: cfg.Budget,
		nodeDim: cfg.NodeFeat.Cols,
	}
	if cfg.EdgeFeat != nil {
		b.core.edgeDim = cfg.EdgeFeat.Cols
	}
	if err := b.SwapGraph(cfg.TCSR, cfg.EdgeFeat); err != nil {
		return nil, err
	}
	return b, nil
}

// SwapGraph retargets the builder at a new immutable graph snapshot: a fresh
// finder over tcsr and a fresh edge-feature store (rows aligned with the
// snapshot's event ids). The node store and the buffer pool are retained.
// The finder is reseeded from the configured seed, so randomized policies
// restart their stream per snapshot; MostRecent draws no randomness and is
// unaffected. tcsr may be any packed layout; with incremental snapshots
// (tgraph.AppendableTCSR) the swap cost is independent of the stream length.
func (b *InferenceBuilder) SwapGraph(tcsr tgraph.Adjacency, edgeFeat *tensor.Matrix) error {
	if edgeFeat == nil {
		edgeFeat = tensor.New(0, b.core.edgeDim)
	}
	if edgeFeat.Cols != b.core.edgeDim {
		return fmt.Errorf("train: SwapGraph edge-feature width %d, builder expects %d",
			edgeFeat.Cols, b.core.edgeDim)
	}
	b.finder = sampler.NewGPUFinder(tcsr, device.New(), b.seed)
	if b.core.edgeDim > 0 {
		b.core.EdgeStore = featstore.New(edgeFeat, nil, nil)
	}
	return nil
}

// Memo is what a memoizing InferenceBuilder asks about the targets of the
// hop under the top: the caller's store of embeddings at that layer's
// output (internal/serve's inner-embedding memo).
type Memo interface {
	// Lookup returns the embedding of tg, target i of the hop under the top,
	// or nil when the caller holds none. It is asked once per target that is
	// not sampler.Padding, in ascending i, and the row is copied before the
	// next call.
	Lookup(i int, tg sampler.Target) []float64
}

// Build materializes the minibatch for roots (buildCore.build, every hop
// static). The returned minibatch is owned by the pool — hand it back with
// Release after the forward pass; do not retain references across the
// Release.
//
// With a Memo, a target of the hop under the top that it holds is built as
// sampler.Padding — nothing is found, sliced or built under it — and
// recorded on that hop's block with its row (LayerBlock.Known), which the
// model copies instead of computing it.
func (b *InferenceBuilder) Build(roots []sampler.Target) *models.MiniBatch {
	if b.Memo == nil {
		return b.core.build(roots, b.finder, nil)
	}
	return b.core.build(roots, b.finder, func(l int, targets []sampler.Target) *models.LayerBlock {
		if l != b.core.layers-2 {
			return nil
		}
		block := b.core.pool.getBlock(len(targets), b.core.budget, b.core.edgeDim)
		for i, tg := range targets {
			if tg == sampler.Padding {
				continue
			}
			if row := b.Memo.Lookup(i, tg); row != nil {
				block.AddKnown(int32(i), row)
				targets[i] = sampler.Padding
			}
		}
		return b.core.staticHop(block, targets, b.finder)
	})
}

// Release returns a minibatch built by Build to the pool.
func (b *InferenceBuilder) Release(mb *models.MiniBatch) {
	if mb != nil {
		b.core.release(mb)
	}
}
