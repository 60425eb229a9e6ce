package train

// Pipeline is a bounded run of TrainSteps on the caller's goroutine, nothing
// more: its losses are TrainStep's. It remains only because the benchmark
// module drives train-base-mixer's laps through NewPipeline, Step and Close;
// ROADMAP.md item 11(i) deletes it together with the benchmark's
// train.pipeline_overlap_share metric.
type Pipeline struct {
	t      *Trainer
	limit  int // most steps to run; 0 is unbounded
	n      int // steps run
	closed bool
}

// NewPipeline returns a run of at most limit training steps (0 = unbounded).
func (t *Trainer) NewPipeline(limit int) *Pipeline { return &Pipeline{t: t, limit: limit} }

// Step runs the next TrainStep and returns its loss. ok is false once limit
// steps have run or the run is closed.
func (p *Pipeline) Step() (loss float64, ok bool) {
	if p.closed || (p.limit > 0 && p.n == p.limit) {
		return 0, false
	}
	p.n++
	return p.t.TrainStep(), true
}

// Close ends the run: later Steps report ok false.
func (p *Pipeline) Close() { p.closed = true }
