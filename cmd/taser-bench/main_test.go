package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"taser/internal/bench"
)

// docFiles are the files whose citations tier-1 holds to the tree: the ones
// that drive experiments, make targets and tests by name, and the two design
// documents. benchmark/ is a module of its own and is not scanned.
var docFiles = []string{"Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md", "DESIGN.md", "EXPERIMENTS.md"}

// TestDocumentedExperimentsAreRegistered: every name the docs cite exists —
// an `-exp NAME` in the registry, a `make X` in code (not in prose or a
// comment) among the Makefile's targets, a Test…/Fuzz…/Benchmark…/Example… name as a prefix of a function
// in some _test.go, a §N as a section of DESIGN.md and a BENCH_<n>.json
// stage record (`make bench-record`) at the repository root — so retiring or
// renaming one cannot leave a dead citation behind. The paper's sections are
// roman (§III-B), so an arabic §N is DESIGN.md's wherever it appears; Go
// comments and scripts are checked for those too.
func TestDocumentedExperimentsAreRegistered(t *testing.T) {
	const root = "../.."
	targets := submatches(t, root+"/Makefile", `(?m)^([a-z][a-z0-9-]*):`)
	sections := submatches(t, root+"/DESIGN.md", `(?m)^## (\d+)\. `)
	tests := testFunctions(t, root)
	checks := []struct {
		what     string
		cite     *regexp.Regexp
		inCode   bool // in markdown, only code spans and blocks are scanned
		anywhere bool // Go files and scripts are scanned too, not only docFiles
		exists   func(string) bool
	}{
		{"an experiment", regexp.MustCompile(`-exp[ =]([a-z0-9-]+)`), false, false, func(name string) bool {
			_, ok := bench.Lookup(name)
			return ok || name == "all"
		}},
		{"a make target", regexp.MustCompile(`(?:^|\s)make[ \t]+([a-z][a-z0-9-]*)\b`), true, false, func(name string) bool { return targets[name] }},
		{"a test", regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark|Example)[A-Z][A-Za-z0-9_]*)`), false, false, func(name string) bool {
			for fn := range tests {
				if strings.HasPrefix(fn, name) {
					return true
				}
			}
			return false
		}},
		{"a DESIGN.md section", regexp.MustCompile(`§(\d+)`), false, true, func(n string) bool { return sections[n] }},
		{"a committed stage record", regexp.MustCompile(`\b(BENCH_\d+\.json)`), false, false, func(name string) bool {
			_, err := os.Stat(filepath.Join(root, name))
			return err == nil
		}},
	}
	comment := regexp.MustCompile(`(?m)(^|\s)#.*$`)
	paths := append([]string(nil), docFiles...)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() && (hidden(d) || rel == "benchmark") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); ext == ".go" || ext == ".sh" {
			paths = append(paths, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		code := comment.ReplaceAllString(text, "$1") // Makefile, YAML and shell comments are prose
		if strings.HasSuffix(path, ".md") {
			code = markdownCode(text)
		}
		for _, c := range checks {
			if !c.anywhere && !slices.Contains(docFiles, path) {
				continue
			}
			scan := text
			if c.inCode {
				scan = code
			}
			for _, m := range c.cite.FindAllStringSubmatch(scan, -1) {
				if !c.exists(m[1]) {
					t.Errorf("%s cites %q, which is not %s", path, strings.TrimSpace(m[0]), c.what)
				}
			}
		}
	}
}

// submatches returns the set of first submatches of pattern in a file.
func submatches(t *testing.T, path, pattern string) map[string]bool {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, m := range regexp.MustCompile(pattern).FindAllSubmatch(text, -1) {
		set[string(m[1])] = true
	}
	if len(set) == 0 {
		t.Fatalf("%s: nothing matches %s", path, pattern)
	}
	return set
}

// testFunctions returns the names of every Test, Fuzz, Benchmark and Example
// function in the repository's _test.go files, benchmark/ included.
func testFunctions(t *testing.T, root string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			if err == nil && d.IsDir() && hidden(d) {
				return filepath.SkipDir
			}
			return err
		}
		text, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(text, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	if err != nil || len(names) == 0 {
		t.Fatalf("no test functions found under %s: %v", root, err)
	}
	return names
}

// hidden reports a dot directory (.git, build caches); none holds sources.
func hidden(d fs.DirEntry) bool {
	return d.Name() != "." && d.Name() != ".." && strings.HasPrefix(d.Name(), ".")
}

// markdownCode returns the fenced blocks of a markdown text, and its inline
// code spans one per line with their line breaks folded into spaces.
func markdownCode(text string) string {
	var b strings.Builder
	for i, part := range strings.Split(text, "```") {
		if i%2 == 1 {
			b.WriteString(part)
			continue
		}
		for _, span := range regexp.MustCompile("`[^`]+`").FindAllString(part, -1) {
			b.WriteString(strings.Join(strings.Fields(strings.Trim(span, "`")), " ") + "\n")
		}
	}
	return b.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of the stderr message
	}{
		{"unknown dataset", []string{"-exp", "table2", "-datasets", "nope"}, []string{`unknown dataset "nope"`, "wikipedia"}},
		{"unknown dataset, no experiment", []string{"-datasets", "nope"}, []string{`unknown dataset "nope"`}},
		{"unknown experiment", []string{"-exp", "tabel1"}, []string{`unknown experiment "tabel1"`, "table1", "overload"}},
		{"retired mode", []string{"-exp", "kernels"}, []string{`unknown experiment "kernels"`, "known: table2"}},
		{"no experiment", nil, []string{"unknown experiment"}},
		{"retired flag", []string{"-exp", "table2", "-serve-addr", "http://x"}, []string{"flag provided but not defined"}},
		// Values no run can mean: -scale -1 used to print scale=-1.00 over
		// full-size datasets and exit 0, -hidden -3 the title and then exit 1.
		{"negative scale", []string{"-exp", "table2", "-scale", "-1"}, []string{"scale must be positive (got -1)"}},
		{"zero scale", []string{"-exp", "table2", "-scale", "0"}, []string{"scale must be positive (got 0)"}},
		{"NaN scale", []string{"-exp", "table2", "-scale", "NaN"}, []string{"scale must be positive (got NaN)"}},
		{"negative hidden", []string{"-exp", "ablation-encoder", "-hidden", "-3"}, []string{"Config.Hidden must not be negative"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit status %d, want 2\nstderr: %s", code, stderr.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr.String(), want) {
					t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			if strings.Contains(stderr.String(), "goroutine") || stdout.Len() != 0 {
				t.Fatalf("stack trace on stderr or output before the error:\n%s%s", stdout.String(), stderr.String())
			}
		})
	}
}

func TestRunsAnExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-scale", "0.02"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\nstderr: %s", code, stderr.String())
	}
	for _, want := range []string{"=== table2 ===", "Table II", "gdelt"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestJSONRowsMatchText: -json writes the rows the text tables print:
// rendering the file's rows again reproduces stdout byte for byte.
func TestJSONRowsMatchText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-scale", "0.02", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\nstderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []result
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Experiment != "table2" || len(results[0].Rows) == 0 {
		t.Fatalf("-json wrote %d results: %s", len(results), raw)
	}
	var again bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&again, "=== %s ===\n", r.Experiment)
		bench.Render(&again, r.Title, r.Rows)
		fmt.Fprintln(&again)
	}
	if again.String() != stdout.String() {
		t.Fatalf("rows rendered from the file:\n%s\nstdout:\n%s", again.String(), stdout.String())
	}
}
