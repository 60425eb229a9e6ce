package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and the share of the baseline's median by
// which it may get worse.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runFile is one saved run: the info line and the result line.
type runFile struct {
	workload string
	seed     uint64
	traced   bool
	tol      float64 // allowed quality_score difference between runs of one seed
	values   map[string]float64
}

func readRun(path string) (*runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: want an info line and a result line", path)
	}
	var info struct {
		Info struct {
			Workload         string
			Seed             uint64
			Traced           bool
			QualityTolerance float64 `json:"quality_tolerance"`
		}
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return nil, fmt.Errorf("%s: info line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
		return nil, fmt.Errorf("%s: not a correct run (attempted %d, failed %d)", path, res.Attempted, res.Failed)
	}
	r := &runFile{workload: info.Info.Workload, seed: info.Info.Seed, traced: info.Info.Traced,
		tol: info.Info.QualityTolerance, values: map[string]float64{}}
	for k, v := range res.Metrics {
		r.values[k] = v.Value
	}
	return r, nil
}

// readRuns loads every untraced run JSON of a directory, by workload.
func readRuns(dir string) (map[string][]*runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*runFile{}
	for _, p := range paths {
		r, err := readRun(p)
		if err != nil {
			return nil, err
		}
		if !r.traced {
			out[r.workload] = append(out[r.workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run JSONs", dir)
	}
	return out, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4): the exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n == 1 {
		return cp[0], cp[0], cp[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (cp[j-1]*(4-delta) + cp[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareDirs prints, per workload × end-to-end metric, both sides' medians
// and quartiles, how much worse B is than A as a share of A's median, and
// the bound. A pair whose own run-to-run spread (quartile distance over
// median, on either side) exceeds the bound is unresolved, not passed. It
// reports a breach when B is worse than A by more than the bound, or when
// runs of one seed disagree on quality_score.
func compareDirs(w io.Writer, specPath, dirA, dirB string) (breach bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return false, err
	}
	unresolved := 0
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%s: missing on one side (%d vs %d runs)\n", wl.Name, len(ra), len(rb))
			continue
		}
		fmt.Fprintf(w, "%s (%d vs %d runs)\n", wl.Name, len(ra), len(rb))
		fmt.Fprintf(w, "  %-16s %-6s %12s %-25s %12s %-25s %8s %6s  %s\n",
			"metric", "unit", "median A", "[q1, q3] A", "median B", "[q1, q3] B", "worse", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			col := func(rs []*runFile) []float64 {
				xs := make([]float64, len(rs))
				for i, r := range rs {
					xs[i] = r.values[m.Name]
				}
				return xs
			}
			a1, a2, a3 := quartiles(col(ra))
			b1, b2, b3 := quartiles(col(rb))
			worse := (b2 - a2) / math.Abs(a2)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := math.Max((a3-a1)/math.Abs(a2), (b3-b1)/math.Abs(b2))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, breach = "BREACH", true
			case spread > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "  %-16s %-6s %12.5g %-25s %12.5g %-25s %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, a2, fmt.Sprintf("[%.5g, %.5g]", a1, a3), b2, fmt.Sprintf("[%.5g, %.5g]", b1, b3),
				100*worse, 100*m.Bound, verdict)
		}
		// Outputs are a function of the seed: every run of one seed must
		// report the same quality_score, up to the workload's tolerance.
		bySeed := map[uint64][]float64{}
		for _, r := range append(append([]*runFile(nil), ra...), rb...) {
			bySeed[r.seed] = append(bySeed[r.seed], r.values["quality_score"])
		}
		for seed, qs := range bySeed {
			sort.Float64s(qs)
			if d := qs[len(qs)-1] - qs[0]; d > ra[0].tol {
				fmt.Fprintf(w, "  BREACH: quality_score differs by %.6g between runs of seed %d (allowed %g)\n", d, seed, ra[0].tol)
				breach = true
			}
		}
	}
	fmt.Fprintf(w, "breach: %v, unresolved: %d\n", breach, unresolved)
	return breach, nil
}

// revision is the VCS revision the binary was built from, when the build
// could see one (a driver checkout is not a git repository).
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
