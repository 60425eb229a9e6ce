package train

import (
	"fmt"
	"sync"

	"taser/internal/autograd"
	"taser/internal/device"
	"taser/internal/featstore"
	"taser/internal/mathx"
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

	Layers int            // model hop depth (TGAT: 2, GraphMixer: 1)
	Budget int            // supporting neighbors per hop (n)
	Policy sampler.Policy // static sampling policy (serving default: MostRecent)
	Finder FinderKind     // "" = FinderGPU (arbitrary-order, the serving requirement)
	Seed   uint64

	Xfer *device.XferStats // optional transfer accounting (may be nil)
}

// InferenceBuilder materializes inference minibatches through the same
// pooled, allocation-free build path the training loop uses (pool.go),
// detached from any Trainer: it binds a neighbor finder over an arbitrary
// T-CSR — e.g. an online serving snapshot — plus node/edge feature stores,
// and builds non-adaptive (static-policy) minibatches for arbitrary roots.
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
	cfg      InferConfig
	gpu      *device.GPU // one worker pool shared by every snapshot's finder
	finder   sampler.Finder
	finderMu sync.Mutex

	nodeStore *featstore.Store
	edgeStore *featstore.Store // nil when the graph carries no edge features

	pool             *buildPool
	nodeDim, edgeDim int

	// g is the builder's reusable arena-backed forward graph; see Graph.
	g *autograd.Graph
}

// Graph checks out the builder's reusable arena-backed autograd graph for
// one recording forward–backward pass (the fine-tuner's), resetting the
// previous pass's tape and recycling its intermediates. Outputs must be
// copied out of the returned graph's matrices before the next checkout
// (DESIGN.md §7). Like Build/SwapGraph, it is owned by a single goroutine.
func (b *InferenceBuilder) Graph() *autograd.Graph { return b.checkout(false) }

// ForwardGraph is Graph for a pass that never calls Backward: the same
// graph, checked out forward-only. The serving scheduler pairs each Build
// with one ForwardGraph checkout.
func (b *InferenceBuilder) ForwardGraph() *autograd.Graph { return b.checkout(true) }

func (b *InferenceBuilder) checkout(forwardOnly bool) *autograd.Graph {
	if b.g == nil {
		b.g = autograd.NewReusable()
	}
	return checkout(b.g, forwardOnly)
}

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
	b := &InferenceBuilder{
		cfg:     cfg,
		pool:    newBuildPool(),
		nodeDim: cfg.NodeFeat.Cols,
	}
	b.nodeStore = featstore.New(cfg.NodeFeat, nil, cfg.Xfer)
	if cfg.EdgeFeat != nil {
		b.edgeDim = cfg.EdgeFeat.Cols
	}
	if err := b.SwapGraph(cfg.TCSR, cfg.EdgeFeat); err != nil {
		return nil, err
	}
	return b, nil
}

// newFinder constructs a finder of the configured kind over tcsr. The GPU
// finder reuses the builder's device (and so its persistent worker pool)
// across snapshot swaps instead of spinning up a pool per snapshot.
func (b *InferenceBuilder) newFinder(tcsr tgraph.Adjacency) (sampler.Finder, error) {
	switch b.cfg.Finder {
	case FinderOrigin:
		return sampler.NewOriginFinder(tcsr, mathx.NewRNG(b.cfg.Seed)), nil
	case FinderTGL:
		return sampler.NewTGLFinder(tcsr, mathx.NewRNG(b.cfg.Seed)), nil
	case "", FinderGPU:
		if b.gpu == nil {
			b.gpu = device.New()
		}
		return sampler.NewGPUFinder(tcsr, b.gpu, b.cfg.Seed), nil
	}
	return nil, fmt.Errorf("train: unknown finder %q", b.cfg.Finder)
}

// SwapGraph retargets the builder at a new immutable graph snapshot: a fresh
// finder over tcsr and a fresh edge-feature store (rows aligned with the
// snapshot's event ids). The node store and the buffer pool are retained.
// The finder is reseeded from the configured seed, so randomized policies
// restart their stream per snapshot; the serving default (MostRecent) draws
// no randomness and is unaffected. tcsr may be any packed layout; with
// incremental snapshots (tgraph.AppendableTCSR) the swap cost is independent
// of the stream length.
func (b *InferenceBuilder) SwapGraph(tcsr tgraph.Adjacency, edgeFeat *tensor.Matrix) error {
	if edgeFeat == nil {
		edgeFeat = tensor.New(0, b.edgeDim)
	}
	if edgeFeat.Cols != b.edgeDim {
		return fmt.Errorf("train: SwapGraph edge-feature width %d, builder expects %d",
			edgeFeat.Cols, b.edgeDim)
	}
	finder, err := b.newFinder(tcsr)
	if err != nil {
		return err
	}
	b.finderMu.Lock()
	b.finder = finder
	b.finderMu.Unlock()
	if b.edgeDim > 0 {
		b.edgeStore = featstore.New(edgeFeat, nil, b.cfg.Xfer)
	}
	return nil
}

// Build materializes the minibatch for roots through the pooled non-adaptive
// path: per hop, neighbor finding at the static policy followed by edge
// feature slicing, then leaf (h⁰) slicing. The returned minibatch is owned by
// the pool — hand it back with Release after the forward pass; do not retain
// references across the Release.
func (b *InferenceBuilder) Build(roots []sampler.Target) *models.MiniBatch {
	blocks := make([]*models.LayerBlock, b.cfg.Layers)
	targets := roots
	var spent []sampler.Target
	for l := b.cfg.Layers - 1; l >= 0; l-- {
		res := b.pool.getResult()
		b.finderMu.Lock()
		err := b.finder.Sample(targets, b.cfg.Budget, b.cfg.Policy, res)
		b.finderMu.Unlock()
		if err != nil {
			panic(err) // targets are internally generated; a failure is a bug
		}
		block := b.pool.getBlock(len(targets), res.Budget, b.edgeDim)
		fillBlockFromResult(block, targets, res)
		if b.edgeDim > 0 {
			b.edgeStore.Slice(res.Eids, block.EdgeFeat)
		}
		b.pool.putResult(res)
		blocks[l] = block

		next := b.pool.getTargets(len(targets) + len(block.NbrNodes))
		next = appendExtendedTargets(next, targets, block)
		b.pool.putTargets(spent)
		spent, targets = next, next
	}
	leaf := b.pool.getMat(len(targets), b.nodeDim)
	ids := b.pool.getIDs(len(targets))
	for _, tg := range targets {
		ids = append(ids, tg.Node)
	}
	b.nodeStore.Slice(ids, leaf)
	b.pool.putIDs(ids)
	b.pool.putTargets(spent)
	return &models.MiniBatch{Layers: blocks, LeafFeat: leaf}
}

// Release returns a minibatch built by Build to the pool.
func (b *InferenceBuilder) Release(mb *models.MiniBatch) {
	if mb == nil {
		return
	}
	for _, blk := range mb.Layers {
		b.pool.putBlock(blk)
	}
	b.pool.putMat(mb.LeafFeat)
}
