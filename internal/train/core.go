package train

import (
	"sync"
	"time"

	"taser/internal/featstore"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/stats"
	"taser/internal/tensor"
)

// buildCore is the static half of mini-batch generation — Table III's NF and
// FS columns — and the one implementation of it: the Trainer (training,
// evaluation, BuildMiniBatch) and the detached InferenceBuilder (serving,
// fine-tuning) both run build. Per hop, outermost first: neighbor finding at
// the static policy into a pooled Result, block fill, edge-feature slicing,
// then extension of the target list by the block's neighbors; after the
// innermost hop, leaf (h⁰) slicing. What differs between callers arrives as
// data — the finder instance and its mutex, an optional per-hop block
// supplier (the Trainer's adaptive hop), a Timer that may be nil — so nothing
// here asks who is calling.
//
// The Trainer embeds the core; the exported fields are part of its surface.
type buildCore struct {
	EdgeStore *featstore.Store // unused (and possibly nil) when edgeDim is 0
	NodeStore *featstore.Store
	Timer     *stats.Timer // NF/FS accounting; nil leaves the build untimed

	pool             *buildPool
	policy           sampler.Policy // static sampling policy of every finder call
	layers, budget   int            // hop depth; supporting neighbors per hop (n)
	nodeDim, edgeDim int
}

// hopFunc may supply hop l's block in place of the static hop; a nil block
// selects the static one. build only ever calls it, so a caller's closure
// (and what it captures) stays on that caller's stack.
type hopFunc func(l int, targets []sampler.Target) *models.LayerBlock

// build materializes the minibatch for roots, sampling static hops from f
// under mu. The minibatch's buffers are the pool's: hand them back with
// release after the forward pass, or never (then the pool allocates anew).
func (c *buildCore) build(roots []sampler.Target, f sampler.Finder, mu *sync.Mutex, hop hopFunc) *models.MiniBatch {
	blocks := make([]*models.LayerBlock, c.layers) // [0] = innermost
	targets := roots
	var spent []sampler.Target // pooled intermediate target list to recycle
	for l := c.layers - 1; l >= 0; l-- {
		var block *models.LayerBlock
		if hop != nil {
			block = hop(l, targets)
		}
		if block == nil {
			block = c.staticHop(targets, f, mu)
		}
		blocks[l] = block
		next := c.pool.targets.get(len(targets) + len(block.NbrNodes))
		next = appendExtendedTargets(next, targets, block)
		c.pool.targets.put(spent)
		spent, targets = next, next
	}
	// Leaf features: h⁰ for the innermost targets followed by their
	// neighbors — which is exactly the final extended target list.
	leaf := c.pool.getMat(len(targets), c.nodeDim)
	c.sliceTargetNodes(targets, leaf)
	c.pool.targets.put(spent)
	return &models.MiniBatch{Layers: blocks, LeafFeat: leaf}
}

// release returns a minibatch made by build to the pool.
func (c *buildCore) release(mb *models.MiniBatch) {
	for _, blk := range mb.Layers {
		c.pool.putBlock(blk)
	}
	c.pool.putMat(mb.LeafFeat)
}

// staticHop converts an n-budget finder result directly into a layer block
// and slices its edge features (the non-adaptive hop).
func (c *buildCore) staticHop(targets []sampler.Target, f sampler.Finder, mu *sync.Mutex) *models.LayerBlock {
	res := c.pool.getResult()
	c.sample(f, mu, targets, c.budget, res)
	block := c.pool.getBlock(len(targets), res.Budget, c.edgeDim)
	for i, tg := range targets {
		for j := 0; j < int(res.Counts[i]); j++ {
			s := res.Slot(i, j)
			block.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
		}
	}
	block.FinishMask()
	c.sliceEdges(res.Eids, block.EdgeFeat)
	c.pool.putResult(res)
	return block
}

// sample runs a neighbor finder under that instance's mutex and charges NF.
// Finders keep mutable RNG/pointer state, so each instance has its own lock:
// the Trainer's producer-side and consumer-side instances overlap while each
// one's sampling stream stays a function of its own call order.
func (c *buildCore) sample(f sampler.Finder, mu *sync.Mutex, targets []sampler.Target, budget int, out *sampler.Result) {
	start := time.Now()
	mu.Lock()
	err := f.Sample(targets, budget, c.policy, out)
	mu.Unlock()
	if err != nil {
		panic(err) // targets are internally generated; a failure is a bug
	}
	c.charge("NF", start, 0)
}

// charge adds the wall time since start plus a modeled extra to a bucket.
func (c *buildCore) charge(bucket string, start time.Time, extra time.Duration) {
	if c.Timer != nil {
		c.Timer.Add(bucket, time.Since(start)+extra)
	}
}

// sliceEdges fetches edge-feature rows (ids aligned with dst's rows; −1
// yields a zero row), charging FS with both the real copy time and the
// modeled transfer time. Slice reports its own call's modeled cost, so
// concurrent slicing from the prefetch goroutine and the consumer never
// cross-charges.
func (c *buildCore) sliceEdges(ids []int32, dst *tensor.Matrix) {
	if c.edgeDim == 0 {
		return
	}
	start := time.Now()
	modeled := c.EdgeStore.Slice(ids, dst)
	c.charge("FS", start, modeled)
}

func (c *buildCore) sliceNodes(ids []int32, dst *tensor.Matrix) {
	start := time.Now()
	modeled := c.NodeStore.Slice(ids, dst)
	c.charge("FS", start, modeled)
}

// sliceTargetNodes fetches the targets' own node features, one row each.
func (c *buildCore) sliceTargetNodes(targets []sampler.Target, dst *tensor.Matrix) {
	ids := c.pool.ids.get(len(targets))
	for _, tg := range targets {
		ids = append(ids, tg.Node)
	}
	c.sliceNodes(ids, dst)
	c.pool.ids.put(ids)
}

// appendExtendedTargets appends targets and then the block's selected
// neighbors, the next hop's targets, to next. A neighbor (u, t_u) is
// embedded at its interaction time t_u. Padded slots become the sentinel
// target (node 0, time 0), whose temporal neighborhood is empty; its
// (meaningless) embedding is excluded by the outer layer mask.
func appendExtendedTargets(next, targets []sampler.Target, block *models.LayerBlock) []sampler.Target {
	next = append(next, targets...)
	for i := 0; i < block.NumTargets; i++ {
		for j := 0; j < block.Budget; j++ {
			s := i*block.Budget + j
			node := block.NbrNodes[s]
			if node < 0 {
				next = append(next, sampler.Target{Node: 0, Time: 0})
				continue
			}
			// Δt = t_target − t_edge ⇒ t_edge = t_target − Δt.
			next = append(next, sampler.Target{
				Node: node,
				Time: targets[i].Time - block.DeltaT.Data[s],
			})
		}
	}
	return next
}
