// Command benchmark runs one named workload of the repository's benchmark
// per invocation, checks its outputs and prints every metric by name with
// its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "derives the dataset, negative draws, request mix, node draws and arrival schedule")
		seconds = flag.Float64("seconds", baseSeconds, "primary-window length the lap size is scaled to")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics at a quarter of the laps, spans written to -out")
		tiny    = flag.Bool("tiny", false, "toy sizes (the self-test's profile)")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files and scratch state")
		compare = flag.Bool("compare", false, "compare two directories of run JSONs: -compare A B")
		spec    = flag.String("spec", "BENCHMARK.json", "the benchmark's contract, for -compare's bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two directories"))
		}
		breach, err := compareDirs(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breach {
			os.Exit(1)
		}
		return
	}
	var wl *workload
	for _, w := range workloads() {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, tiny: *tiny, outDir: *outDir}
	res, err := wl.run(o)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", wl.name, err))
	}
	if err := emit(os.Stdout, wl, o, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// emit prints the run's info line and then, as the last line, the result:
// exactly the declared metrics of the run's kind, each with its unit.
func emit(out io.Writer, wl *workload, o options, res *result) error {
	if res.attempted < 1 || res.failed < 0 || res.failed > res.attempted {
		return fmt.Errorf("%s: attempted %d, failed %d do not add up", wl.name, res.attempted, res.failed)
	}
	res.info["workload"] = wl.name
	res.info["seed"] = o.seed
	res.info["seconds"] = o.seconds
	res.info["traced"] = o.trace
	res.info["nproc"] = runtime.NumCPU()
	res.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.info["go"] = runtime.Version()
	res.info["revision"] = revision()
	res.info["ok"] = res.attempted - res.failed
	res.info["quality_tolerance"] = wl.qualityTol
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, s := range specs {
		v, ok := res.metrics[s.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", wl.name, s.Name)
		}
		if err := finite(s.Name, v); err != nil {
			return err
		}
		vals[s.Name] = value{v, s.Unit}
	}
	if len(res.metrics) != len(specs) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", wl.name, len(res.metrics), len(specs))
	}
	info, err := json.Marshal(map[string]any{"info": res.info})
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": vals,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", info, line)
	return err
}
