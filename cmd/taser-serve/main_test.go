package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/overload"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// ok is a valid single-engine baseline every case below perturbs.
func okFlags() flagValues {
	return flagValues{shards: 1, model: "tgat"}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*flagValues)
		explicit []string
		wantErr  string // substring; "" = must pass
	}{
		{name: "defaults pass", mutate: nil},
		{name: "overload fully on", mutate: func(v *flagValues) {
			v.sloP99 = 25 * time.Millisecond
			v.ovInterval = 100 * time.Millisecond
			v.maxQueue = 64
			v.ovCap = 32
		}, explicit: []string{"slo-p99", "overload-interval", "max-queue", "overload-capacity"}},
		{name: "controller alone", mutate: func(v *flagValues) { v.sloP99 = time.Millisecond }, explicit: []string{"slo-p99"}},
		{name: "admission alone", mutate: func(v *flagValues) { v.maxQueue = 8 }, explicit: []string{"max-queue"}},
		{name: "sharded overload", mutate: func(v *flagValues) {
			v.shards = 4
			v.model = "graphmixer"
			v.maxQueue = 8
		}, explicit: []string{"max-queue"}},

		{name: "explicit zero slo", mutate: nil, explicit: []string{"slo-p99"}, wantErr: "-slo-p99 must be a positive duration"},
		{name: "negative slo", mutate: func(v *flagValues) { v.sloP99 = -time.Second }, explicit: []string{"slo-p99"}, wantErr: "-slo-p99 must be a positive duration"},
		{name: "explicit zero queue", mutate: nil, explicit: []string{"max-queue"}, wantErr: "-max-queue must be positive"},
		{name: "interval without target", mutate: func(v *flagValues) { v.ovInterval = time.Second }, explicit: []string{"overload-interval"}, wantErr: "-overload-interval requires -slo-p99"},
		{name: "capacity without queue", mutate: func(v *flagValues) { v.ovCap = 16 }, explicit: []string{"overload-capacity"}, wantErr: "-overload-capacity requires -max-queue"},

		{name: "zero shards", mutate: func(v *flagValues) { v.shards = 0 }, wantErr: "-shards must be at least 1"},
		{name: "sharded replica", mutate: func(v *flagValues) {
			v.shards = 2
			v.model = "graphmixer"
			v.replFrom = "http://leader:8080"
		}, wantErr: "cannot combine with -replicate-from"},
		{name: "sharded finetune", mutate: func(v *flagValues) {
			v.shards = 2
			v.model = "graphmixer"
			v.ftOn = true
		}, wantErr: "cannot combine with -finetune"},
		{name: "sharded tgat", mutate: func(v *flagValues) { v.shards = 2 }, wantErr: "requires -model graphmixer"},
		{name: "recover without wal", mutate: nil, explicit: []string{"recover"}, wantErr: "-recover requires -wal-dir"},
		{name: "promote without leader", mutate: func(v *flagValues) { v.promote = true }, wantErr: "-promote requires -replicate-from"},
		{name: "replica finetune", mutate: func(v *flagValues) {
			v.replFrom = "http://leader:8080"
			v.ftOn = true
		}, wantErr: "-finetune cannot run on a replica"},
		{name: "replica replay", mutate: func(v *flagValues) {
			v.replFrom = "http://leader:8080"
			v.replay = true
		}, wantErr: "-replay cannot run on a replica"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := okFlags()
			if tc.mutate != nil {
				tc.mutate(&v)
			}
			explicit := map[string]bool{}
			for _, name := range tc.explicit {
				explicit[name] = true
			}
			err := validateFlags(v, explicit)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%+v) = %v, want nil", v, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags(%+v) = %v, want error containing %q", v, err, tc.wantErr)
			}
		})
	}
}

// TestServeConfigValidate covers what validateFlags cannot see — values, not
// flag combinations — through the check main runs as soon as the model
// exists: a setting New would reject (or, before Validate, silently
// misbehave on) must fail before pretraining, not after it.
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
			c.Overload = overload.Config{TargetP99: 25 * time.Millisecond, MaxQueue: 64}
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

// TestBadTrainValueExits2 runs the built command: a pretraining value
// train.Config.Validate or datasets.CheckScale rejects is a usage error — exit
// status 2 and one line on stderr before the dataset is even generated — not a
// panic mid-pretraining, an exit 1 out of train.New (-model) or a quiet run at
// full size (-scale -1).
func TestBadTrainValueExits2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "taser-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ flag, value, want string }{
		{"-n", "-1", "train: Config.N "},
		{"-model", "foo", "train: Config.Model "},
		{"-scale", "-1", "datasets: scale must be positive"},
		{"-scale", "0", "datasets: scale must be positive"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.flag, tc.value)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Fatalf("%s %s: %v, want exit status 2\nstderr: %s", tc.flag, tc.value, err, stderr.String())
		}
		msg := strings.TrimSpace(stderr.String())
		if !strings.HasPrefix(msg, "taser-serve: "+tc.want) || strings.Contains(msg, "\n") || stdout.Len() != 0 {
			t.Fatalf("%s %s: want one line on stderr and nothing on stdout, got:\n%s%s",
				tc.flag, tc.value, stdout.String(), stderr.String())
		}
	}
}
