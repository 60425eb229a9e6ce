package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"taser/internal/bench"
)

// TestDocumentedExperimentsAreRegistered: every `-exp NAME` a Makefile
// target, a CI step or the verify skill drives must be in the registry, so
// retiring or renaming an experiment cannot leave a dead entry point behind.
func TestDocumentedExperimentsAreRegistered(t *testing.T) {
	expFlag := regexp.MustCompile(`-exp[ =]([a-z0-9-]+)`)
	for _, path := range []string{"../../Makefile", "../../.github/workflows/ci.yml", "../../.claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expFlag.FindAllSubmatch(text, -1) {
			name := string(m[1])
			if _, ok := bench.Lookup(name); !ok && name != "all" {
				t.Errorf("%s drives -exp %s, which is not a registered experiment (%s)", path, name, bench.Names())
			}
		}
	}
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
