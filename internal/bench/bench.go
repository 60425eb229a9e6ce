// Package bench regenerates the paper's evaluation (§IV) against the
// synthetic datasets — Tables I–III, Figs. 1/3/4 and the ablations DESIGN.md
// calls out — plus the serving experiments that have no counterpart workload
// in benchmark/ (online fine-tuning, recovery, replication, the open-loop
// overload burst). Steady-state performance numbers live in BENCHMARK.json's
// workloads, not here.
//
// Experiments is the one list of what exists: cmd/taser-bench, the package
// tests and the root bench_test.go all read it. Each experiment takes Options
// and returns a title and typed rows; Run prints them through the one
// renderer (render.go), Rows hands them to tests, which is where the paper's
// claims are asserted (claims_test.go).
package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"taser/internal/adaptive"
	"taser/internal/datasets"
	"taser/internal/train"
)

// Row is one measured cell: Group names the table it belongs to (dataset and
// model, taken from what was actually generated and trained), Variant its
// line, Metric its column.
type Row struct {
	Group, Variant, Metric string
	Value                  float64
	Unit                   string
}

// Experiment is one registry row.
type Experiment struct {
	Name  string
	InAll bool // part of `taser-bench -exp all`
	run   func(Options) (title string, rows []Row, err error)
}

// Experiments is the registry, in the order `-exp all` runs it.
var Experiments = []Experiment{
	{"table2", true, table2},
	{"table1", true, table1},
	{"fig1", true, fig1},
	{"table3", true, table3},
	{"fig3a", true, fig3a},
	{"fig3b", true, fig3b},
	{"fig4", true, fig4},
	{"ablation-encoder", true, ablationEncoder},
	{"ablation-decoder", true, ablationDecoder},
	{"ablation-cache", true, ablationCache},
	{"ablation-heuristics", true, ablationHeuristics},
	{"finetune", true, finetuneExp},
	{"recover", true, recoverExp},
	{"replicate", true, replicateExp},
	{"overload", false, overloadExp}, // ~25 s of wall-clock timeline: run on request
}

// Rows fills o's defaults, validates it and runs the experiment.
func (e Experiment) Rows(o Options) (title string, rows []Row, err error) {
	o = o.Normalize()
	if err := o.Validate(); err != nil {
		return "", nil, err
	}
	return e.run(o)
}

// Run is Rows rendered to o.Out.
func (e Experiment) Run(o Options) error {
	title, rows, err := e.Rows(o)
	if err != nil {
		return err
	}
	render(o.Out, title, rows)
	return nil
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the registered experiment names, comma-separated, for flag
// help and error messages.
func Names() string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// Options is the training profile every experiment shares. The zero value is
// filled with the quick profile; see Normalize.
type Options struct {
	Out io.Writer

	Scale        float64 // dataset scale multiplier (1.0 = DESIGN.md default)
	Epochs       int     // training epochs for accuracy experiments
	Hidden       int
	TimeDim      int
	BatchSize    int
	LR           float64
	MaxEvalEdges int
	Seed         uint64

	// Datasets restricts experiments to these names (nil = experiment's
	// default set).
	Datasets []string
}

// Normalize fills defaults.
func (o Options) Normalize() Options {
	if o.Out == nil {
		panic("bench: Options.Out is required")
	}
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Epochs == 0 {
		o.Epochs = 6
	}
	if o.Hidden == 0 {
		o.Hidden = 24
	}
	if o.TimeDim == 0 {
		o.TimeDim = 12
	}
	if o.BatchSize == 0 {
		o.BatchSize = 150
	}
	if o.LR == 0 {
		o.LR = 3e-3
	}
	if o.MaxEvalEdges == 0 {
		o.MaxEvalEdges = 300
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Validate rejects what no experiment can run with: a name in Datasets that
// is not a dataset, a scale that is not positive, a training value
// train.Config.Validate refuses. cmd/taser-bench reports it as a usage error.
func (o Options) Validate() error {
	for _, n := range o.Datasets {
		if !slices.Contains(allNames, n) {
			return fmt.Errorf("bench: unknown dataset %q (known: %s)", n, strings.Join(allNames, ", "))
		}
	}
	if err := datasets.CheckScale(o.Scale); err != nil {
		return err
	}
	return o.baseConfig(train.ModelTGAT).Validate()
}

// baseConfig builds the training config every experiment starts from. The
// sampler head is the paper's pairing (§IV-B) — TGAT with GATv2, GraphMixer
// with the linear/Mixer head — and is read only when a variant turns
// adaptive neighbor sampling on.
func (o Options) baseConfig(model train.ModelKind) train.Config {
	decoder := adaptive.DecoderGATv2
	if model == train.ModelGraphMixer {
		decoder = adaptive.DecoderLinear
	}
	return train.Config{
		Model: model, Finder: train.FinderGPU, Decoder: decoder,
		Hidden: o.Hidden, TimeDim: o.TimeDim,
		BatchSize: o.BatchSize, Epochs: o.Epochs, LR: o.LR,
		CacheRatio: 0.2, MaxEvalEdges: o.MaxEvalEdges, Seed: o.Seed,
	}
}

// loadDatasets generates the requested datasets (or def when none were
// requested). Names were checked by Validate.
func (o Options) loadDatasets(def []string) []*datasets.Dataset {
	names := o.Datasets
	if len(names) == 0 {
		names = def
	}
	out := make([]*datasets.Dataset, 0, len(names))
	for _, n := range names {
		d, ok := datasets.ByName(n, o.Scale, o.Seed)
		if !ok {
			panic(fmt.Sprintf("bench: unknown dataset %q", n))
		}
		out = append(out, d)
	}
	return out
}

var allNames = []string{"wikipedia", "reddit", "flights", "movielens", "gdelt"}
