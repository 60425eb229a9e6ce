package bench

import (
	"fmt"
	"time"

	"taser/internal/cache"
	"taser/internal/datasets"
	"taser/internal/device"
	"taser/internal/featstore"
	"taser/internal/mathx"
	"taser/internal/sampler"
	"taser/internal/train"
)

// fig3a reproduces Figure 3(a): total sampling time per epoch of a 2-layer
// TGAT fanout under the three neighbor finders as the per-layer budget
// grows. All finders receive identical chronological batches (the only order
// the TGL finder is built for). The shape to reproduce: Origin is orders of
// magnitude slower than both parallel finders, and the TASER GPU finder
// beats the TGL pointer-array finder. (The paper's 37–56× GPU-vs-TGL gap
// comes from thousands of CUDA threads vs 192 CPU threads; on a host-only
// simulator both finders share the same cores, so expect the same ordering
// with a smaller ratio.)
func fig3a(o Options) (string, []Row, error) {
	title := fmt.Sprintf("Fig. 3(a) — 2-hop sampling time per epoch | scale=%.2f batch=%d", o.Scale, o.BatchSize)
	var rows []Row
	for _, ds := range o.loadDatasets(allNames) {
		for _, budget := range []int{5, 10, 15, 20, 25} {
			rng := mathx.NewRNG(o.Seed)
			v := fmt.Sprintf("n=%d", budget)
			times := map[string]float64{}
			for _, f := range []struct {
				name   string
				finder sampler.Finder
			}{
				{"origin-cpu", sampler.NewOriginFinder(ds.TCSR, rng.Split())},
				{"tgl-cpu", sampler.NewTGLFinder(ds.TCSR, rng.Split())},
				{"taser-gpu", sampler.NewGPUFinder(ds.TCSR, device.New(), o.Seed)},
			} {
				times[f.name] = sampleEpoch(ds, f.finder, budget, o.BatchSize).Seconds()
				rows = append(rows, Row{ds.Spec.Name, v, f.name, times[f.name], "s"})
			}
			rows = append(rows, Row{ds.Spec.Name, v, "gpu-vs-tgl", times["tgl-cpu"] / times["taser-gpu"], "x"})
		}
	}
	return title, rows, nil
}

// sampleEpoch drives one chronological epoch of 2-hop TGAT fanout through a
// finder and returns the total sampling wall time.
func sampleEpoch(ds *datasets.Dataset, f sampler.Finder, budget, batchSize int) time.Duration {
	var out sampler.Result
	var total time.Duration
	for lo := 0; lo < ds.TrainEnd; lo += batchSize {
		hi := mathx.MinInt(lo+batchSize, ds.TrainEnd)
		roots := make([]sampler.Target, 0, 2*(hi-lo))
		for e := lo; e < hi; e++ {
			ev := ds.Graph.Events[e]
			roots = append(roots,
				sampler.Target{Node: ev.Src, Time: ev.Time},
				sampler.Target{Node: ev.Dst, Time: ev.Time})
		}
		start := time.Now()
		if err := f.Sample(roots, budget, sampler.Uniform, &out); err != nil {
			panic(err)
		}
		// Hop 2: expand every sampled neighbor at its interaction time.
		next := make([]sampler.Target, 0, len(roots)*budget)
		for i := range roots {
			for j := 0; j < int(out.Counts[i]); j++ {
				s := out.Slot(i, j)
				next = append(next, sampler.Target{Node: out.Nodes[s], Time: out.Times[s]})
			}
		}
		if len(next) > 0 {
			if err := f.Sample(next, budget, sampler.Uniform, &out); err != nil {
				panic(err)
			}
		}
		total += time.Since(start)
	}
	if tgl, ok := f.(*sampler.TGLFinder); ok {
		tgl.Reset()
	}
	return total
}

// fig3b reproduces Figure 3(b): cache hit rate per epoch of TASER's
// frequency cache vs. the Oracle cache at 10/20/30% capacity. The access
// stream is recorded from a real TASER training run (it is independent of
// cache contents), then each policy's epoch-granular hit rate is simulated
// from the per-epoch access counts. The shape to reproduce: TASER's curve
// hugs the oracle's within a few percent after the first epochs.
func fig3b(o Options) (string, []Row, error) {
	title := fmt.Sprintf("Fig. 3(b) — edge-feature cache hit rate per epoch | scale=%.2f epochs=%d", o.Scale, o.Epochs)
	var rows []Row
	for _, ds := range o.loadDatasets([]string{"wikipedia", "reddit", "movielens", "gdelt"}) {
		counts, err := recordAccessCounts(o, ds)
		if err != nil {
			return "", nil, err
		}
		for _, r := range []float64{0.10, 0.20, 0.30} {
			k := int(r * float64(ds.EdgeFeat.Rows))
			freq, oracle := cache.NewFrequency(ds.EdgeFeat.Rows, k, cache.PaperEpsilon), cache.NewOracle(k)
			for e, epochCounts := range counts {
				oracle.Reveal(epochCounts)
				fh, ft := freq.ObserveCounts(epochCounts)
				oh, ot := oracle.ObserveCounts(epochCounts)
				freq.EndEpoch()
				v := fmt.Sprintf("epoch %d", e+1)
				rows = append(rows,
					Row{ds.Spec.Name, v, fmt.Sprintf("taser %.0f%%", 100*r), 100 * float64(fh) / float64(ft), "%"},
					Row{ds.Spec.Name, v, fmt.Sprintf("oracle %.0f%%", 100*r), 100 * float64(oh) / float64(ot), "%"})
			}
		}
	}
	return title, rows, nil
}

// recordingPolicy counts edge-feature accesses without caching anything.
type recordingPolicy struct {
	counts []int64
}

func (r *recordingPolicy) Access(id int32) (int, bool) { r.counts[id]++; return 0, false }
func (r *recordingPolicy) Lookup(int32) (int, bool)    { return 0, false }
func (r *recordingPolicy) EndEpoch() []int32           { return nil }
func (r *recordingPolicy) Capacity() int               { return 0 }
func (r *recordingPolicy) HitRate() float64            { return 0 }
func (r *recordingPolicy) ResetStats()                 {}

// recordAccessCounts runs o.Epochs epochs of the full TASER pipeline and
// returns the per-epoch edge-feature access counts.
func recordAccessCounts(o Options, ds *datasets.Dataset) ([][]int64, error) {
	tr, err := o.trainer(ds, train.ModelTGAT, func(c *train.Config) {
		taser(c)
		c.CacheRatio = 0
	})
	if err != nil {
		return nil, err
	}
	rec := &recordingPolicy{counts: make([]int64, ds.EdgeFeat.Rows)}
	tr.EdgeStore = featstore.New(ds.EdgeFeat, rec, nil)
	var perEpoch [][]int64
	for e := 0; e < o.Epochs; e++ {
		tr.TrainEpoch()
		snapshot := make([]int64, len(rec.counts))
		copy(snapshot, rec.counts)
		perEpoch = append(perEpoch, snapshot)
		for i := range rec.counts {
			rec.counts[i] = 0
		}
	}
	return perEpoch, nil
}
