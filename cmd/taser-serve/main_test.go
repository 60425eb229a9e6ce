package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/overload"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// small is a fast profile every case below adds to: one pretraining epoch, so
// a check that ran late would have printed an epoch line first.
var small = []string{"-scale", "0.02", "-epochs", "1", "-hidden", "8", "-addr", "127.0.0.1:0"}

// runCancelled runs the command under an already-cancelled context: a valid
// command line comes all the way up and drains at once.
func runCancelled(args ...string) (code int, stdout, stderr string) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	code = run(ctx, append(append([]string{}, small...), args...), &out, &errb)
	return code, out.String(), errb.String()
}

// TestValidateFlags drives run itself: a valid combination pretrains,
// bootstraps, listens and drains with status 0; a contradictory one is a usage
// error — status 2 and one line on stderr before the first pretraining epoch —
// whichever of options.validate and the configs' own Validate states the rule.
func TestValidateFlags(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "store")
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; "" = must pass
	}{
		{name: "defaults pass"},
		{name: "overload fully on", args: []string{"-max-queue", "64", "-overload-capacity", "32"}},
		{name: "admission alone", args: []string{"-max-queue", "8"}},
		{name: "sharded overload", args: []string{"-shards", "4", "-model", "graphmixer", "-max-queue", "8"}},
		{name: "durable finetune", args: []string{"-wal-dir", wal, "-finetune", "-finetune-interval", "50ms"}},

		{name: "explicit zero queue", args: []string{"-max-queue", "0"}, wantErr: "-max-queue must be positive"},
		// Stated by overload.Config.Normalize alone, reached through
		// serve.Config.Validate once the model exists.
		{name: "capacity without queue", args: []string{"-overload-capacity", "16"}, wantErr: "-overload-capacity requires -max-queue"},
		{name: "negative max-batch", args: []string{"-max-batch", "-1"}, wantErr: "serve: Config.MaxBatch"},

		{name: "zero shards", args: []string{"-shards", "0"}, wantErr: "-shards must be at least 1"},
		{name: "sharded replica", args: []string{"-shards", "2", "-model", "graphmixer", "-replicate-from", "http://leader:8080"}, wantErr: "cannot combine with -replicate-from"},
		{name: "sharded finetune", args: []string{"-shards", "2", "-model", "graphmixer", "-finetune"}, wantErr: "cannot combine with -finetune"},
		{name: "sharded tgat", args: []string{"-shards", "2"}, wantErr: "requires -model graphmixer"},
		{name: "recover without wal", args: []string{"-recover"}, wantErr: "-recover requires -wal-dir"},
		{name: "promote without leader", args: []string{"-promote"}, wantErr: "-promote requires -replicate-from"},
		{name: "replica finetune", args: []string{"-replicate-from", "http://leader:8080", "-finetune"}, wantErr: "-finetune cannot run on a replica"},
		{name: "replica replay", args: []string{"-replicate-from", "http://leader:8080", "-replay"}, wantErr: "-replay cannot run on a replica"},
		{name: "retired flag", args: []string{"-max-wait", "2ms"}, wantErr: "flag provided but not defined: -max-wait"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCancelled(tc.args...)
			if tc.wantErr == "" {
				if code != 0 || stderr != "" || !strings.HasSuffix(stdout, "bye\n") {
					t.Fatalf("exit status %d, want a clean run\nstderr: %s\nstdout: %s", code, stderr, stdout)
				}
				return
			}
			if code != 2 || !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("exit status %d, want 2 with %q on stderr, got:\n%s", code, tc.wantErr, stderr)
			}
			if strings.Contains(stdout, "pretrain epoch") {
				t.Fatalf("rejected only after pretraining:\n%s%s", stdout, stderr)
			}
		})
	}
}

// TestServeConfigValidate covers what options.validate does not look at —
// serving values, not flag combinations — through the check run makes as soon
// as the model exists: a setting New would reject (or, before Validate,
// silently misbehave on) must fail before pretraining, not after it.
func TestServeConfigValidate(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 1)
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent", Hidden: 8, Seed: 1,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(*serve.Config)
		wantErr string // substring; "" = must pass
	}{
		{name: "flag defaults pass", mutate: func(c *serve.Config) {
			c.MaxBatch, c.MaxWait, c.SnapshotEvery = 32, 2*time.Millisecond, 256
		}},
		{name: "zeros select defaults", mutate: func(c *serve.Config) {}},
		{name: "overload on", mutate: func(c *serve.Config) {
			c.Overload = overload.Config{MaxQueue: 64}
		}},
		{name: "negative max-batch", mutate: func(c *serve.Config) { c.MaxBatch = -1 }, wantErr: "MaxBatch"},
		{name: "negative max-wait", mutate: func(c *serve.Config) { c.MaxWait = -time.Millisecond }, wantErr: "MaxWait"},
		{name: "negative snapshot-every", mutate: func(c *serve.Config) { c.SnapshotEvery = -1 }, wantErr: "SnapshotEvery"},
		{name: "negative overload capacity", mutate: func(c *serve.Config) {
			c.Overload = overload.Config{MaxQueue: 8, Capacity: -1}
		}, wantErr: "Capacity"},
		// The zero Policy is sampler.Uniform: two identical predicts would
		// embed two different random neighborhoods (and the cache freeze one).
		{name: "zero policy", mutate: func(c *serve.Config) { c.Policy = 0 }, wantErr: "zero value is sampler.Uniform"},
		{name: "no model", mutate: func(c *serve.Config) { c.Model = nil }, wantErr: "Model is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serve.Config{Model: tr.Model, Pred: tr.Pred, NumNodes: ds.Spec.NumNodes, Policy: sampler.MostRecent}
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
			if _, newErr := serve.New(cfg); newErr == nil {
				t.Fatal("serve.New accepted a config Validate rejects")
			}
		})
	}
}

// TestBadTrainValueExits2: a pretraining, dataset or fine-tuning value the
// owning config's Validate (or datasets.CheckScale) rejects is a usage error —
// exit status 2 and one line on stderr before the dataset is even generated —
// not a panic mid-pretraining or in time.NewTicker after it, an exit 1 out of
// train.New (-model), a quiet run at full size (-scale -1) or by gradient
// ascent (-finetune-lr -0.1).
func TestBadTrainValueExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "train: Config.N "},
		{[]string{"-model", "foo"}, "train: Config.Model "},
		{[]string{"-scale", "-1"}, "datasets: scale must be positive"},
		{[]string{"-scale", "0"}, "datasets: scale must be positive"},
		{[]string{"-finetune", "-finetune-interval", "-1s"}, "finetune: Config.Interval "},
		{[]string{"-finetune", "-finetune-lr", "-0.1"}, "finetune: Config.LR "},
		{[]string{"-finetune", "-finetune-lr", "NaN"}, "finetune: Config.LR "},
		{[]string{"-finetune", "-replay-window", "-5"}, "finetune: Config.ReplayWindow "},
	} {
		code, stdout, stderr := runCancelled(tc.args...)
		if code != 2 {
			t.Fatalf("%v: exit status %d, want 2\nstderr: %s", tc.args, code, stderr)
		}
		msg := strings.TrimSpace(stderr)
		if !strings.HasPrefix(msg, "taser-serve: "+tc.want) || strings.Contains(msg, "\n") || stdout != "" {
			t.Fatalf("%v: want one line on stderr and nothing on stdout, got:\n%s%s", tc.args, stdout, stderr)
		}
	}
}

// TestInvocationsUseDefinedFlags: every file that runs taser-serve — a make
// target, a smoke script, a CI step, the verify skill, the design documents —
// passes only flags bind defines, so retiring a flag cannot leave a dead
// invocation behind.
func TestInvocationsUseDefinedFlags(t *testing.T) {
	fs := flag.NewFlagSet("taser-serve", flag.ContinueOnError)
	new(options).bind(fs)
	paths, err := filepath.Glob("../../scripts/*.sh")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	paths = append(paths, "../../Makefile", "../../.github/workflows/ci.yml", "../../.claude/skills/verify/SKILL.md",
		"../../DESIGN.md", "../../EXPERIMENTS.md")
	// An invocation is the rest of a (continued) line after the command, the
	// scripts' "$BIN" or their shared COMMON= flags, up to a redirect, pipe
	// or closing backquote; a flag is a dash and a letter after a separator.
	invocation := regexp.MustCompile("(?:taser-serve|\"\\$BIN\"|COMMON=\")([^\n>|;`]*)")
	flagName := regexp.MustCompile(`(?:^|[\s,(])-([a-z][a-z0-9-]*)`)
	seen := 0
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		for _, inv := range invocation.FindAllStringSubmatch(joined, -1) {
			for _, m := range flagName.FindAllStringSubmatch(inv[1], -1) {
				seen++
				if fs.Lookup(m[1]) == nil {
					t.Errorf("%s runs taser-serve with -%s, which is not a flag it defines:\n\t%s", path, m[1], strings.TrimSpace(inv[0]))
				}
			}
		}
	}
	if seen < 20 {
		t.Fatalf("only %d flags found across %d files: the scan is not seeing the invocations", seen, len(paths))
	}
}
