package bench

import (
	"fmt"
	"time"

	"taser/internal/finetune"
	"taser/internal/mathx"
	"taser/internal/serve"
	"taser/internal/stats"
)

// finetuneExp measures what online fine-tuning buys on a drifted stream: a
// model is pretrained on the training split, then the evaluation split is
// replayed with every destination remapped through a fixed permutation — the
// (src, dst) affinities the model learned stop holding, which is the
// distribution shift continual learning exists for. Two engines serve the
// drifted stream prequentially (each event is scored against finetuneNegs
// negatives *before* it is ingested, DistTGL-style MRR): one frozen, one
// with the internal/finetune Tuner running a round every finetuneEvery
// events. Both engines see identical events, query times and negative sets.
//
// Reported per engine: MRR over the first and second half of the drifted
// stream (adaptation shows as the fine-tuned second half pulling away),
// predict latency p50/p99 — the fine-tuned column includes every weight
// swap, which is the non-blocking-publication claim — and the weight
// versions published/applied plus the mean in-scheduler swap cost.
func finetuneExp(o Options) (string, []Row, error) {
	fx, err := newServingFixture(o)
	if err != nil {
		return "", nil, err
	}
	ds, tr := fx.ds, fx.tr
	for e := 0; e < o.Epochs; e++ {
		tr.TrainEpoch()
	}

	// Drifted tail: permute the destination partition so pretrained pair
	// affinities break while the marginal node/degree statistics survive,
	// and flip the sign of every edge-feature row. The permutation is the
	// kind of shift structural ingest partially absorbs (new neighborhoods
	// accumulate in the graph either way); the feature sign flip is pure
	// semantic drift — only parameter adaptation can re-learn what the
	// features now mean, which is exactly the gap between the two arms.
	rng := mathx.NewRNG(o.Seed ^ 0xd41f7)
	lo := ds.Spec.NumSrc // 0 for general graphs: permute everything
	perm := rng.Perm(ds.Spec.NumNodes - lo)
	remap := func(v int32) int32 {
		if int(v) < lo {
			return v
		}
		return int32(lo + perm[int(v)-lo])
	}
	driftFeat := ds.EdgeFeat.Clone()
	driftFeat.ScaleInPlace(-1)
	drift := ds.Graph.Events[ds.TrainEnd:] // destinations still to be remapped
	// Per-event negative candidates, shared by both engines.
	negSets := make([][]int32, len(drift))
	for i := range negSets {
		ns := make([]int32, finetuneNegs)
		for j := range ns {
			ns[j] = int32(lo + rng.Intn(ds.Spec.NumNodes-lo))
		}
		negSets[i] = ns
	}

	title := fmt.Sprintf("Online fine-tuning on a drifted stream (%d drifted events, round every %d, %d negatives, lr %g, passes %d)",
		len(drift), finetuneEvery, finetuneNegs, finetuneLR, finetunePasses)
	g := group(ds, tr.Cfg.Model)
	var rows []Row
	var frozen2nd float64
	// arm serves the drifted stream on one engine and appends its line.
	arm := func(name string) error {
		e, err := fx.engine(func(c *serve.Config) {
			c.Model, c.Pred = tr.Model.Clone(), tr.Pred.Clone()
			c.MaxBatch, c.MaxWait = 2*(1+finetuneNegs), 50*time.Microsecond
			c.SnapshotEvery = finetuneEvery
		})
		if err != nil {
			return err
		}
		defer e.Close()
		if err := fx.bootstrap(e); err != nil {
			return err
		}
		var tu *finetune.Tuner
		if name == "fine-tuned" {
			tu, err = finetune.New(finetune.Config{
				Engine: e, Model: tr.Model, Pred: tr.Pred, NumSrc: ds.Spec.NumSrc,
				ReplayWindow: 4 * finetuneEvery, BatchSize: 64, Passes: finetunePasses, LR: finetuneLR,
				Seed: o.Seed ^ 0xf1e,
			})
			if err != nil {
				return err
			}
			defer tu.Close()
			// The tuner's seed round runs on the bootstrap split so its Adam
			// state is warm before drift begins (the frozen arm's pretraining
			// already saw those events; this keeps the arms comparable).
			if _, err := tu.RunOnce(); err != nil {
				return err
			}
		}

		var sum1, sum2 float64
		var n1, n2 int
		var lats []float64
		for i, ev := range drift {
			// Test: prequential rank of the true destination among the
			// negatives, scored strictly before the event is ingested.
			dst := remap(ev.Dst)
			pos, lat, err := timedPredict(e, ev.Src, dst, ev.Time)
			if err != nil {
				return err
			}
			lats = append(lats, lat)
			rank := 1
			for _, nd := range negSets[i] {
				s, lat, err := timedPredict(e, ev.Src, nd, ev.Time)
				if err != nil {
					return err
				}
				lats = append(lats, lat)
				if s >= pos {
					rank++
				}
			}
			if i < len(drift)/2 {
				sum1 += 1.0 / float64(rank)
				n1++
			} else {
				sum2 += 1.0 / float64(rank)
				n2++
			}
			// Then train: ingest the event; round the tuner at cadence.
			if err := e.Ingest(ev.Src, dst, ev.Time, driftFeat.Row(ds.TrainEnd+i)); err != nil {
				return err
			}
			if tu != nil && (i+1)%finetuneEvery == 0 {
				e.PublishSnapshot()
				if _, err := tu.RunOnce(); err != nil {
					return err
				}
			}
		}
		st := e.Stats()
		mrr1, mrr2 := sum1/float64(max(n1, 1)), sum2/float64(max(n2, 1))
		rows = append(rows,
			Row{g, name, "1st half", mrr1, "MRR"}, Row{g, name, "2nd half", mrr2, "MRR"},
			Row{g, name, "p50", stats.Quantile(lats, 0.50) * 1e3, "ms"},
			Row{g, name, "p99", stats.Quantile(lats, 0.99) * 1e3, "ms"},
			Row{g, name, "swaps", float64(st.WeightSwaps), ""},
			Row{g, name, "swap", float64(st.AvgSwap.Microseconds()), "µs"})
		if name == "frozen" {
			frozen2nd = mrr2
		} else {
			// Positive when adaptation pays: the fine-tuned arm pulling away
			// on the drifted second half.
			rows = append(rows, Row{"summary", "fine-tuned − frozen", "2nd half", mrr2 - frozen2nd, "ΔMRR"})
		}
		return nil
	}
	for _, name := range []string{"frozen", "fine-tuned"} {
		if err := arm(name); err != nil {
			return "", nil, err
		}
	}
	return title, rows, nil
}

// Knobs of the fine-tuning experiment. The stream knobs are variables so the
// package smoke test can shorten the run.
var (
	finetuneEvery = 96 // drifted events ingested per fine-tune round
	finetuneNegs  = 19 // negatives per prequential MRR evaluation
)

const (
	finetuneLR     = 3e-4 // fine-tuning learning rate
	finetunePasses = 4    // replay passes per round
)

// timedPredict scores one pair and returns (score, seconds).
func timedPredict(e *serve.Engine, src, dst int32, t float64) (float64, float64, error) {
	start := time.Now()
	res, err := e.PredictLink(src, dst, t)
	if err != nil {
		return 0, 0, err
	}
	return res.Score, time.Since(start).Seconds(), nil
}
