// Pipelined asynchronous training: the paper's per-step breakdown (Table III)
// splits each iteration into NF (neighbor finding), FS (feature slicing), AS
// (adaptive sampling) and PP (propagation). NF and FS read only the graph and
// the feature stores — never the model — so they can be computed for upcoming
// batches while the current batch's forward/backward/step runs. The Pipeline
// below does exactly that: a single prefetch goroutine runs the prepare stage
// (prepareBatch) for future batches in training order, a channel of capacity
// prefetchDepth buffers them, and the consumer resolves the parameter-
// dependent remainder (finishBatch + PP) one batch at a time. Steady-state
// wall time per step approaches max(prepare, consume) instead of their sum.
//
// Determinism: with AdaBatch off the pipelined loop produces bitwise-
// identical losses to TrainStep. Producer-side draws (negative sampling,
// outer-hop finder streams) happen on the single prefetch goroutine in
// training order; consumer-side draws (the adaptive Selection, finder
// streams for the static hops below it) happen on a *dedicated* finder
// instance (Trainer.finderC) and the sampler's own RNG, in consume order —
// which is also training order. Every stream is therefore a function of its own call
// sequence, never of how the goroutines interleave.
// TestPipelinedMatchesSynchronous and
// TestPipelinedAdaNeighborMatchesSynchronous assert the equivalence;
// TestPipelinedRunsAreReproducible asserts fixed-seed repeatability under
// concurrency.
//
// Bounded staleness: with AdaBatch on, a prefetched batch was drawn from
// importance scores that miss the updates of the ≤ prefetchDepth+1 = 3 steps
// still in flight (the channel holds prefetchDepth batches and one more may
// be under construction). With AdaNeighbor on, the Selection is resolved on
// the consumer side against current sampler parameters, keeping the
// co-training gradient path exact; only the m-candidate staging is early.
package train

import (
	"sync"
	"time"
)

// prefetchDepth is the capacity of the channel between the prefetch goroutine
// and the consumer. Two (double buffering) lets two prepared batches wait
// while a third is built, so one slow build does not stall the consumer; with
// AdaBatch it bounds the selector's staleness at prefetchDepth+1 = 3 steps.
const prefetchDepth = 2

// Pipeline overlaps mini-batch construction with model compute. Create one
// with Trainer.NewPipeline, drive it with Step, and Close it before touching
// the trainer from the same goroutine again (TrainStep, eval, a new
// pipeline). At most one pipeline may be open per trainer.
type Pipeline struct {
	t    *Trainer
	out  chan *prepared
	stop chan struct{}
	wg   sync.WaitGroup

	closed bool
}

// NewPipeline starts a prefetching producer that prepares up to limit
// batches (0 = unbounded) ahead of the consumer, keeping at most
// prefetchDepth of them buffered.
func (t *Trainer) NewPipeline(limit int) *Pipeline {
	p := &Pipeline{
		t:    t,
		out:  make(chan *prepared, prefetchDepth),
		stop: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.produce(limit)
	return p
}

// produce is the prefetch loop: prepare batches in training order and hand
// them to the consumer, stopping at limit or on Close.
func (p *Pipeline) produce(limit int) {
	defer p.wg.Done()
	defer close(p.out)
	for n := 0; limit == 0 || n < limit; n++ {
		select {
		case <-p.stop:
			return
		default:
		}
		edges := p.t.nextBatchEdges()
		if len(edges) == 0 {
			return
		}
		pb := p.t.prepareBatch(edges)
		select {
		case p.out <- pb:
		case <-p.stop:
			p.t.releasePrepared(pb)
			return
		}
	}
}

// Step consumes the next prefetched batch and runs the training step on it,
// returning the model loss. ok is false once the pipeline is exhausted
// (limit reached or closed).
func (p *Pipeline) Step() (loss float64, ok bool) {
	pb, ok := <-p.out
	if !ok {
		return 0, false
	}
	return p.t.consume(pb), true
}

// Close shuts the producer down and recycles any batches still in flight
// without training on them. Safe to call multiple times; always call it
// before using the trainer synchronously again. Note that the producer has
// already advanced the trainer's batch cursor (and, with AdaBatch, its
// selector RNG) past the discarded batches.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.stop)
	for pb := range p.out {
		p.t.releasePrepared(pb)
	}
	p.wg.Wait()
}

// TrainEpochPipelined is TrainEpoch with construction overlapped: same
// batches, same updates, same epoch bookkeeping — losses are bitwise equal
// to the synchronous loop when AdaBatch is off.
func (t *Trainer) TrainEpochPipelined() EpochResult {
	steps := (t.DS.TrainEnd + t.Cfg.BatchSize - 1) / t.Cfg.BatchSize
	res := t.trainPipelined(steps)
	t.endEpoch()
	return res
}

// trainPipelined consumes exactly steps batches through a fresh pipeline.
func (t *Trainer) trainPipelined(steps int) EpochResult {
	start := time.Now()
	p := t.NewPipeline(steps)
	defer p.Close()
	var total float64
	n := 0
	for {
		loss, ok := p.Step()
		if !ok {
			break
		}
		total += loss
		n++
	}
	mean := 0.0
	if n > 0 {
		mean = total / float64(n)
	}
	return EpochResult{MeanLoss: mean, Steps: n, Duration: time.Since(start)}
}
