package train

import (
	"fmt"
	"sync"

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
// survives swaps: block/matrix shape classes depend only on batch size and
// model shape, not on the graph, so steady-state serving recycles the same
// buffers while the graph grows underneath.
//
// Build and Release are not safe for concurrent use with each other or with
// SwapGraph; the serving scheduler owns the builder from a single goroutine,
// which is also what keeps the finder's sampling stream well-defined.
type InferenceBuilder struct {
	core     buildCore
	seed     uint64
	gpu      *device.GPU // one worker pool shared by every snapshot's finder
	finder   sampler.Finder
	finderMu sync.Mutex

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
	b := &InferenceBuilder{seed: cfg.Seed, gpu: device.New()}
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
// finder over tcsr (on the builder's one device, so its persistent worker
// pool is not respawned per snapshot) and a fresh edge-feature store (rows
// aligned with the snapshot's event ids). The node store and the buffer pool
// are retained. The finder is reseeded from the configured seed, so
// randomized policies restart their stream per snapshot; MostRecent draws no
// randomness and is unaffected. tcsr may be any packed layout; with
// incremental snapshots (tgraph.AppendableTCSR) the swap cost is independent
// of the stream length.
func (b *InferenceBuilder) SwapGraph(tcsr tgraph.Adjacency, edgeFeat *tensor.Matrix) error {
	if edgeFeat == nil {
		edgeFeat = tensor.New(0, b.core.edgeDim)
	}
	if edgeFeat.Cols != b.core.edgeDim {
		return fmt.Errorf("train: SwapGraph edge-feature width %d, builder expects %d",
			edgeFeat.Cols, b.core.edgeDim)
	}
	finder := sampler.NewGPUFinder(tcsr, b.gpu, b.seed)
	b.finderMu.Lock()
	b.finder = finder
	b.finderMu.Unlock()
	if b.core.edgeDim > 0 {
		b.core.EdgeStore = featstore.New(edgeFeat, nil, nil)
	}
	return nil
}

// Build materializes the minibatch for roots (buildCore.build, every hop
// static). The returned minibatch is owned by the pool — hand it back with
// Release after the forward pass; do not retain references across the
// Release.
func (b *InferenceBuilder) Build(roots []sampler.Target) *models.MiniBatch {
	return b.core.build(roots, b.finder, &b.finderMu, nil)
}

// Release returns a minibatch built by Build to the pool.
func (b *InferenceBuilder) Release(mb *models.MiniBatch) {
	if mb != nil {
		b.core.release(mb)
	}
}
