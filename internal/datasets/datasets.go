// Package datasets generates the five synthetic dynamic graphs that stand in
// for the paper's evaluation datasets (§IV-A, Table II). Real downloads are
// gated (MovieLens/GDELT are multi-GB; Wikipedia/Reddit/Flights require
// external hosting), so each generator reproduces the structural properties
// TASER's mechanisms interact with, at ~100× reduced scale:
//
//   - bipartiteness (Wikipedia, Reddit, MovieLens) vs. general topology
//     (Flights, GDELT);
//   - feature availability: edge-only (Wikipedia/Reddit/MovieLens),
//     node-only (Flights), both (GDELT);
//   - power-law activity→ skewed neighborhood distributions and repeated
//     edges between the same pair (the paper's "skewed neighborhood" noise);
//   - deprecated links: each node's latent interest vector drifts over
//     time, so old interactions carry stale or contradictory signal;
//   - noise edges: a fraction ρ of interactions connect unrelated nodes.
//
// Ground-truth noise labels are retained per event so tests can check which
// adaptive mechanism avoids noise. Today only mini-batch selection does:
// TestClaimTaserBeatsBaseline (internal/bench) asserts that its scores put
// less than noise's base-rate share of their mass on noise edges. The
// adaptive neighbor sampler is not held to it: co-trained as it is, it
// learns toward noise candidates rather than away from them.
package datasets

import (
	"fmt"
	"math"

	"taser/internal/mathx"
	"taser/internal/tensor"
	"taser/internal/tgraph"
)

// Spec parameterizes a generator.
type Spec struct {
	Name      string
	NumNodes  int
	NumSrc    int // bipartite: sources are [0, NumSrc); 0 means general graph
	NumEvents int
	NodeDim   int
	EdgeDim   int

	LatentDim  int     // latent interest-vector width
	NoiseRate  float64 // fraction ρ of uniformly random (noise) interactions
	DriftRate  float64 // latent drift magnitude per unit time (deprecated links)
	RepeatRate float64 // probability of repeating a past partner (skew/recurrence)
	Skew       float64 // zipf exponent of per-node activity
	CandPool   int     // affinity candidate pool size per event

	TrainFrac float64
	ValFrac   float64
	Seed      uint64
}

// Dataset is a fully materialized synthetic CTDG with chronological splits.
type Dataset struct {
	Spec     Spec
	Graph    *tgraph.Graph
	TCSR     *tgraph.TCSR
	NodeFeat *tensor.Matrix // NumNodes×NodeDim (zero-width if NodeDim==0)
	EdgeFeat *tensor.Matrix // NumEvents×EdgeDim (zero-width if EdgeDim==0)
	// Noise[i] marks event i as ground-truth noise.
	Noise []bool
	// TrainEnd/ValEnd are event-index split boundaries:
	// train = [0, TrainEnd), val = [TrainEnd, ValEnd), test = [ValEnd, |E|).
	TrainEnd, ValEnd int
}

// TrainEvents, ValEvents, TestEvents return the split sizes.
func (d *Dataset) TrainEvents() int { return d.TrainEnd }
func (d *Dataset) ValEvents() int   { return d.ValEnd - d.TrainEnd }
func (d *Dataset) TestEvents() int  { return len(d.Graph.Events) - d.ValEnd }

// String summarizes the dataset for Table II output.
func (d *Dataset) String() string {
	return fmt.Sprintf("%-10s |V|=%-6d |E|=%-7d dv=%-3d de=%-3d train/val/test=%d/%d/%d",
		d.Spec.Name, d.Spec.NumNodes, len(d.Graph.Events), d.Spec.NodeDim, d.Spec.EdgeDim,
		d.TrainEvents(), d.ValEvents(), d.TestEvents())
}

// Generate materializes a dataset from its spec.
func Generate(spec Spec) *Dataset {
	if spec.LatentDim <= 0 {
		spec.LatentDim = 8
	}
	if spec.CandPool <= 0 {
		spec.CandPool = 24
	}
	if spec.TrainFrac <= 0 {
		spec.TrainFrac = 0.6
	}
	if spec.ValFrac <= 0 {
		spec.ValFrac = 0.2
	}
	rng := mathx.NewRNG(spec.Seed)
	n := spec.NumNodes

	// Latent interests: base vector plus a drift direction per node.
	base := tensor.Randn(n, spec.LatentDim, 1, rng)
	drift := tensor.Randn(n, spec.LatentDim, 1, rng)
	horizon := float64(spec.NumEvents)
	latentAt := func(v int32, t float64, dst []float64) {
		// Normalized time in [0,1] scales the drift so DriftRate is
		// comparable across dataset sizes.
		u := t / horizon * spec.DriftRate
		b := base.Row(int(v))
		g := drift.Row(int(v))
		for i := range dst {
			dst[i] = b[i] + u*g[i]
		}
	}

	// Power-law activity per source node.
	srcRange := n
	if spec.NumSrc > 0 {
		srcRange = spec.NumSrc
	}
	weights := make([]float64, srcRange)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -spec.Skew)
	}
	rng.Shuffle(srcRange, func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	srcAlias := mathx.NewAlias(weights)

	dstLo, dstHi := 0, n
	if spec.NumSrc > 0 {
		dstLo = spec.NumSrc
	}

	events := make([]tgraph.Event, 0, spec.NumEvents)
	noise := make([]bool, spec.NumEvents)
	history := make([][]int32, n) // past partners per source, for repetition
	zs := make([]float64, spec.LatentDim)
	zd := make([]float64, spec.LatentDim)

	for i := 0; i < spec.NumEvents; i++ {
		t := float64(i + 1)
		src := int32(srcAlias.Draw(rng))
		var dst int32
		switch {
		case rng.Float64() < spec.NoiseRate:
			// Noise interaction: unrelated destination.
			dst = int32(dstLo + rng.Intn(dstHi-dstLo))
			noise[i] = true
		case len(history[src]) > 0 && rng.Float64() < spec.RepeatRate:
			// Recurrence: revisit a past partner (skewed neighborhoods).
			dst = history[src][rng.Intn(len(history[src]))]
		default:
			// Affinity-driven: softmax over a random candidate pool.
			latentAt(src, t, zs)
			bestScore := math.Inf(-1)
			var pick int32
			for c := 0; c < spec.CandPool; c++ {
				cand := int32(dstLo + rng.Intn(dstHi-dstLo))
				if cand == src {
					continue
				}
				latentAt(cand, t, zd)
				var dot float64
				for k := range zs {
					dot += zs[k] * zd[k]
				}
				// Gumbel-max = softmax sampling over the pool.
				score := dot + gumbel(rng)
				if score > bestScore {
					bestScore = score
					pick = cand
				}
			}
			dst = pick
		}
		if dst == src { // avoid degenerate self loops in synthetic data
			dst = int32(dstLo + (int(src)+1-dstLo+rng.Intn(dstHi-dstLo-1))%(dstHi-dstLo))
		}
		history[src] = append(history[src], dst)
		events = append(events, tgraph.Event{Src: src, Dst: dst, Time: t})
	}

	g, err := tgraph.NewGraph(n, events)
	if err != nil {
		panic(err) // generator bug, not user error
	}

	d := &Dataset{Spec: spec, Graph: g, Noise: noise}
	d.TCSR = tgraph.BuildTCSR(g)
	d.buildFeatures(base, rng)
	total := len(g.Events)
	d.TrainEnd = int(spec.TrainFrac * float64(total))
	d.ValEnd = d.TrainEnd + int(spec.ValFrac*float64(total))
	return d
}

// gumbel draws a standard Gumbel variate.
func gumbel(rng *mathx.RNG) float64 {
	return -math.Log(-math.Log(rng.Float64() + 1e-12))
}

// buildFeatures projects latents into observable node/edge features.
// Genuine edges carry a (noisy) projection of both endpoints' latents at the
// interaction time; noise edges carry pure noise — this is the contextual
// signal the adaptive sampler can exploit to discriminate neighbors.
func (d *Dataset) buildFeatures(base *tensor.Matrix, rng *mathx.RNG) {
	spec := d.Spec
	d.NodeFeat = tensor.New(spec.NumNodes, spec.NodeDim)
	if spec.NodeDim > 0 {
		proj := tensor.Randn(spec.LatentDim, spec.NodeDim, 1/math.Sqrt(float64(spec.LatentDim)), rng)
		tensor.MatMulInto(d.NodeFeat, base, proj)
		for i := range d.NodeFeat.Data {
			d.NodeFeat.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
	d.EdgeFeat = tensor.New(len(d.Graph.Events), spec.EdgeDim)
	if spec.EdgeDim > 0 {
		projS := tensor.Randn(spec.LatentDim, spec.EdgeDim, 1/math.Sqrt(float64(spec.LatentDim)), rng)
		projD := tensor.Randn(spec.LatentDim, spec.EdgeDim, 1/math.Sqrt(float64(spec.LatentDim)), rng)
		for i, e := range d.Graph.Events {
			row := d.EdgeFeat.Row(i)
			if d.Noise[i] {
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				continue
			}
			zs := base.Row(int(e.Src))
			zd := base.Row(int(e.Dst))
			for j := range row {
				var s float64
				for k := 0; k < spec.LatentDim; k++ {
					s += zs[k]*projS.Data[k*spec.EdgeDim+j] + zd[k]*projD.Data[k*spec.EdgeDim+j]
				}
				row[j] = s + 0.2*rng.NormFloat64()
			}
		}
	}
}
