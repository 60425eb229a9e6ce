// Command taser-bench regenerates the paper's tables and figures against the
// synthetic datasets, and runs the serving experiments that have no
// BENCHMARK.json workload (finetune, recover, replicate, overload). Each
// experiment returns typed rows (group, variant, metric, value, unit), printed
// here as one table per group; see EXPERIMENTS.md for the layout, recorded
// runs and the paper-vs-measured comparison.
//
// Usage:
//
//	taser-bench -exp table1 [-scale 0.25] [-epochs 6] [-datasets wikipedia,reddit]
//	taser-bench -exp all
//	taser-bench -exp table3 -json rows.json
//
// -json also writes every experiment's rows to a file, as a JSON list of
// {experiment, title, rows}: the numbers the text tables print, unrounded.
// `make bench-record` builds BENCH_<n>.json from such files.
//
// The experiment names are internal/bench's registry; `taser-bench -h` lists
// them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"taser/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the exit
// status (2 = usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("taser-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "", "experiment to run: "+bench.Names()+", or all")
		scale     = fs.Float64("scale", 0.25, "dataset scale multiplier")
		epochs    = fs.Int("epochs", 6, "training epochs for accuracy experiments")
		hidden    = fs.Int("hidden", 24, "hidden dimension")
		batch     = fs.Int("batch", 150, "batch size (positive edges)")
		seed      = fs.Uint64("seed", 42, "random seed")
		evalEdges = fs.Int("eval-edges", 300, "max edges per MRR evaluation")
		dsNames   = fs.String("datasets", "", "comma-separated dataset subset (default: experiment's own)")
		jsonPath  = fs.String("json", "", "also write the rows to this file as JSON")
	)
	fs.Float64Var(&bench.OverloadRate, "open-rate", bench.OverloadRate, "overload: offered burst rate, req/sec (default 2× the calibrated sustainable rate)")
	fs.IntVar(&bench.OverloadQueue, "open-queue", bench.OverloadQueue, "overload: admission engine's per-lane admission bound")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := bench.Options{
		Out: stdout, Scale: *scale, Epochs: *epochs, Hidden: *hidden,
		BatchSize: *batch, Seed: *seed, MaxEvalEdges: *evalEdges,
	}
	if *dsNames != "" {
		opts.Datasets = strings.Split(*dsNames, ",")
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "taser-bench: %v\n", err)
		return 2
	}

	var todo []bench.Experiment
	if *exp == "all" {
		for _, e := range bench.Experiments {
			if e.InAll {
				todo = append(todo, e)
			}
		}
	} else if e, ok := bench.Lookup(*exp); ok {
		todo = []bench.Experiment{e}
	} else {
		fmt.Fprintf(stderr, "taser-bench: unknown experiment %q\nknown: %s, all\n", *exp, bench.Names())
		return 2
	}
	var results []result
	for _, e := range todo {
		fmt.Fprintf(stdout, "=== %s ===\n", e.Name)
		title, rows, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "taser-bench: %s: %v\n", e.Name, err)
			return 1
		}
		results = append(results, result{e.Name, title, rows})
		fmt.Fprintln(stdout)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			fmt.Fprintf(stderr, "taser-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// result is one experiment's run as -json writes it.
type result struct {
	Experiment string      `json:"experiment"`
	Title      string      `json:"title"`
	Rows       []bench.Row `json:"rows"`
}

func writeJSON(path string, results []result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
