package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runTiny runs one workload at toy size and returns its two output lines
// parsed.
func runTiny(t *testing.T, wl *workload, traced bool, dir string) (info map[string]any, res struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	o := options{seed: 1, seconds: baseSeconds, trace: traced, tiny: true, outDir: dir}
	r, err := wl.run(o)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, wl, o, r); err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want an info line and a result line, got %d lines", wl.name, len(lines))
	}
	var wrapped struct{ Info map[string]any }
	if err := json.Unmarshal([]byte(lines[0]), &wrapped); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("%s: result line has %d keys, want correct, attempted, failed, metrics", wl.name, len(keys))
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	return wrapped.Info, res
}

// TestContract pins BENCHMARK.json to what the binary emits.
func TestContract(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	wls := workloads()
	if len(wls) != len(spec.Workloads) {
		t.Fatalf("binary has %d workloads, BENCHMARK.json %d", len(wls), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != wls[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the binary", i, w.Name, wls[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || !name.MatchString(m.Name) {
			t.Errorf("end-to-end %d: %s [%s] declared, %s [%s] emitted", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] metric")
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || !name.MatchString(m.Name) {
			t.Errorf("per-layer %d: %s [%s] declared, %s [%s] emitted", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// TestTinyProfile runs all four workloads, untraced and traced, at toy sizes.
func TestTinyProfile(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads() {
		info, res := runTiny(t, wl, false, dir)
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", wl.name, res.Correct, res.Attempted, res.Failed)
		}
		if info["ok"].(float64)+float64(res.Failed) != float64(res.Attempted) {
			t.Errorf("%s: attempted != ok + failed", wl.name)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", wl.name, len(res.Metrics), len(endToEnd))
		}
		for _, s := range endToEnd {
			m, ok := res.Metrics[s.Name]
			if !ok || m.Unit != s.Unit {
				t.Errorf("%s: %s missing or unit %q, want %q", wl.name, s.Name, m.Unit, s.Unit)
			}
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", wl.name, s.Name, m.Value)
			}
		}
		if laps := info["lap_rates"].([]any); len(laps) < 10 {
			t.Errorf("%s: %d laps, want at least 10", wl.name, len(laps))
		}

		// Same seed, same outputs.
		_, again := runTiny(t, wl, false, dir)
		if d := again.Metrics["quality_score"].Value - res.Metrics["quality_score"].Value; d > wl.qualityTol || -d > wl.qualityTol {
			t.Errorf("%s: quality_score differs by %v between two runs of one seed", wl.name, d)
		}

		info, res = runTiny(t, wl, true, dir)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", wl.name, len(res.Metrics), len(perLayer))
		}
		for _, s := range perLayer {
			if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("%s traced: %s missing or unit %q, want %q", wl.name, s.Name, m.Unit, s.Unit)
			}
		}
		checkTraceFile(t, info["trace_file"].(string))
	}
}

// checkTraceFile re-reads a written trace: parents exist and children lie
// inside them.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	tr := &tracer{spans: f.Spans}
	if err := tr.check(); err != nil {
		t.Errorf("%s: %v", path, err)
	}
	children := 0
	for _, s := range f.Spans {
		if s.Parent >= 0 {
			children++
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent", path)
	}
}

// TestCompare drives -compare over synthetic run files: an A/A pair passes,
// a regression past the bound breaches, a spread past the bound is
// unresolved, and runs of one seed that disagree on quality breach.
func TestCompare(t *testing.T) {
	write := func(dir string, i int, seed uint64, ops, quality float64) {
		vals := map[string]any{}
		for _, s := range endToEnd {
			vals[s.Name] = map[string]any{"value": 1.0, "unit": s.Unit}
		}
		vals["ops_per_s"] = map[string]any{"value": ops, "unit": "1/s"}
		vals["quality_score"] = map[string]any{"value": quality, "unit": "MRR"}
		for _, wl := range workloads() {
			info, _ := json.Marshal(map[string]any{"info": map[string]any{"workload": wl.name, "seed": seed}})
			res, _ := json.Marshal(map[string]any{"correct": true, "attempted": 10, "failed": 0, "metrics": vals})
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", wl.name, i))
			if err := os.WriteFile(path, append(append(info, '\n'), append(res, '\n')...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	set := func(ops []float64, quality float64) string {
		dir := t.TempDir()
		for i, v := range ops {
			write(dir, i, 1, v, quality)
		}
		return dir
	}
	base := set([]float64{100, 101, 99, 100, 102}, 0.5)
	for _, tc := range []struct {
		name       string
		other      string
		breach     bool
		unresolved bool
	}{
		{"same", set([]float64{101, 100, 99, 100, 101}, 0.5), false, false},
		{"slower", set([]float64{60, 61, 59, 60, 62}, 0.5), true, false},
		{"noisy", set([]float64{70, 130, 100, 60, 140}, 0.5), false, true},
		{"quality", set([]float64{100, 101, 99, 100, 102}, 0.4999), true, false},
	} {
		var out bytes.Buffer
		breach, err := compareDirs(&out, "../BENCHMARK.json", base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if breach != tc.breach {
			t.Errorf("%s: breach %v, want %v\n%s", tc.name, breach, tc.breach, out.String())
		}
		if got := !strings.Contains(out.String(), "unresolved: 0"); got != tc.unresolved {
			t.Errorf("%s: unresolved %v, want %v\n%s", tc.name, got, tc.unresolved, out.String())
		}
	}
}
