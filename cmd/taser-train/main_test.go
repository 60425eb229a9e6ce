package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadValuesExit2 runs the built command: a value train.Config.Validate
// or datasets.CheckScale rejects is a usage error — exit status 2 and one line
// on stderr before the dataset is even generated — where it used to "train" a
// negative number of steps and report an untrained model's MRR with status 0
// (-batch), die with a stack trace from the sampler (-n) or the cache
// (-cache), exit 1 after generating the dataset (-model, -finder), or quietly
// run at full size (-scale -1).
func TestBadValuesExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "taser-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ flag, value, want string }{
		{"-batch", "-5", "train: Config.BatchSize "},
		{"-n", "-1", "train: Config.N "},
		{"-cache", "1.5", "train: Config.CacheRatio "},
		{"-model", "foo", "train: Config.Model "},
		{"-finder", "foo", "train: Config.Finder "},
		{"-scale", "-1", "datasets: scale must be positive"},
		{"-scale", "0", "datasets: scale must be positive"},
		{"-scale", "NaN", "datasets: scale must be positive"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-scale", "0.02", "-epochs", "1", tc.flag, tc.value)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Fatalf("%s %s: %v, want exit status 2\nstderr: %s", tc.flag, tc.value, err, stderr.String())
		}
		msg := strings.TrimSpace(stderr.String())
		if !strings.HasPrefix(msg, "taser-train: "+tc.want) || strings.Contains(msg, "\n") || stdout.Len() != 0 {
			t.Fatalf("%s %s: want one line on stderr and nothing on stdout, got:\n%s%s",
				tc.flag, tc.value, stdout.String(), stderr.String())
		}
	}
}
