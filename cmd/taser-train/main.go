// Command taser-train runs one (dataset, model, variant) training
// configuration and reports per-epoch losses, the runtime breakdown, and the
// final validation/test MRR.
//
// Usage:
//
//	taser-train -dataset wikipedia -model tgat -taser
//	taser-train -dataset reddit -model graphmixer -ada-batch
package main

import (
	"flag"
	"fmt"
	"os"

	"taser/internal/adaptive"
	"taser/internal/datasets"
	"taser/internal/train"
)

func main() {
	var (
		dataset   = flag.String("dataset", "wikipedia", "dataset: wikipedia|reddit|flights|movielens|gdelt")
		scale     = flag.Float64("scale", 0.25, "dataset scale multiplier")
		model     = flag.String("model", "tgat", "backbone: tgat|graphmixer")
		finder    = flag.String("finder", "gpu", "neighbor finder: origin|tgl|gpu")
		epochs    = flag.Int("epochs", 6, "training epochs")
		hidden    = flag.Int("hidden", 24, "hidden dimension")
		batch     = flag.Int("batch", 150, "batch size (positive edges)")
		lr        = flag.Float64("lr", 3e-3, "learning rate")
		n         = flag.Int("n", 10, "supporting neighbors per hop")
		m         = flag.Int("m", 25, "adaptive-sampling candidate budget")
		adaBatch  = flag.Bool("ada-batch", false, "enable adaptive mini-batch selection")
		adaNbr    = flag.Bool("ada-neighbor", false, "enable adaptive neighbor sampling")
		taser     = flag.Bool("taser", false, "enable both adaptive components")
		decoder   = flag.String("decoder", "gatv2", "sampler decoder: linear|gat|gatv2|trans")
		cache     = flag.Float64("cache", 0.2, "edge-feature cache ratio")
		seed      = flag.Uint64("seed", 42, "random seed")
		evalEdges = flag.Int("eval-edges", 300, "max edges per MRR evaluation")
		pipeline  = flag.Bool("pipeline", false, "overlap batch construction with compute (async prefetch loop)")
		prefetch  = flag.Int("prefetch", 2, "prefetch depth of the pipelined loop")
	)
	flag.Parse()

	dec, err := adaptive.ParseDecoder(*decoder)
	if err != nil {
		fmt.Fprintf(os.Stderr, "taser-train: %v\n", err)
		os.Exit(2)
	}
	cfg := train.Config{
		Model: train.ModelKind(*model), Finder: train.FinderKind(*finder),
		Hidden: *hidden, BatchSize: *batch, Epochs: *epochs, LR: *lr,
		N: *n, M: *m,
		AdaBatch: *adaBatch || *taser, AdaNeighbor: *adaNbr || *taser,
		Decoder: dec, CacheRatio: *cache,
		MaxEvalEdges: *evalEdges, Seed: *seed,
		PrefetchDepth: *prefetch,
	}
	if err = cfg.Validate(); err == nil {
		err = datasets.CheckScale(*scale)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "taser-train: %v\n", err)
		os.Exit(2)
	}
	ds, ok := datasets.ByName(*dataset, *scale, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "taser-train: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	fmt.Println(ds)

	tr, err := train.New(cfg, ds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "taser-train: %v\n", err)
		os.Exit(1)
	}
	for e := 0; e < cfg.Epochs; e++ {
		var res train.EpochResult
		if *pipeline {
			res = tr.TrainEpochPipelined()
		} else {
			res = tr.TrainEpoch()
		}
		fmt.Printf("epoch %2d  loss=%.4f  (%.1fs, %d steps)\n",
			e+1, res.MeanLoss, res.Duration.Seconds(), res.Steps)
	}
	fmt.Println("breakdown:", tr.Timer.Breakdown())
	if pol := tr.EdgeStore.Policy(); pol != nil {
		fmt.Printf("cache hit rate: %.1f%%\n", 100*pol.HitRate())
	}
	fmt.Printf("val MRR:  %.4f\n", tr.EvalMRR(train.SplitVal))
	fmt.Printf("test MRR: %.4f\n", tr.EvalMRR(train.SplitTest))
}
