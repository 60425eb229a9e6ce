package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyOptions keeps package tests fast: minuscule datasets, one epoch.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{
		Out: buf, Scale: 0.02, Epochs: 1, Hidden: 8, TimeDim: 6,
		BatchSize: 64, MaxEvalEdges: 20, Seed: 9,
		Datasets: []string{"wikipedia"},
	}
}

func TestNormalizeRequiresOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without Out")
		}
	}()
	Options{}.Normalize()
}

func TestVariantsOrder(t *testing.T) {
	v := Variants()
	if len(v) != 4 || v[0].Name != "Baseline" || v[3].Name != "TASER" {
		t.Fatalf("variants: %+v", v)
	}
	if !v[3].AdaBatch || !v[3].AdaNeighbor {
		t.Fatal("TASER must enable both components")
	}
}

// lower sets a package knob for one test and restores it afterwards.
func lower[T any](t *testing.T, knob *T, v T) {
	old := *knob
	*knob = v
	t.Cleanup(func() { *knob = old })
}

// smokes is the package smoke test, one row per registered experiment: how to
// shrink the run below tinyOptions (optional) and what the output must
// contain. TestEveryExperimentHasSmoke fails when the registry and this table
// disagree.
var smokes = map[string]struct {
	tune func(t *testing.T, o *Options)
	want []string
}{
	"table2": {
		tune: func(t *testing.T, o *Options) { o.Datasets = nil }, // Table II always lists all five
		want: []string{"wikipedia", "reddit", "flights", "movielens", "gdelt"},
	},
	"table1": {want: []string{"Baseline", "TASER", "Improvement", "TGAT", "GraphMixer"}},
	"table3": {want: []string{"Baseline", "+GPU NF", "+20% Cache", "speedup"}},
	"fig1":   {want: []string{"Prep"}},
	"fig3a":  {want: []string{"origin-cpu", "tgl-cpu", "taser-gpu"}},
	"fig3b": {
		tune: func(t *testing.T, o *Options) { o.Epochs = 2 },
		want: []string{"oracle"},
	},
	// The grid is triangular: n > m cells must be dashes.
	"fig4":                {want: []string{"m=10", "n=5", "-"}},
	"ablation-encoder":    {want: []string{"full (TE+FE+IE)", "w/o IE", "features only"}},
	"ablation-decoder":    {want: []string{"linear", "gatv2", "trans"}},
	"ablation-cache":      {want: []string{"freq", "lru", "hit rate"}},
	"ablation-heuristics": {want: []string{"most-recent", "inverse-timespan", "adaptive (TASER)"}},
	"finetune": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &finetuneEvery, 16)
			lower(t, &finetuneNegs, 5)
		},
		want: []string{"frozen", "fine-tuned", "MRR", "swap"},
	},
	"recover": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &recoverEvents, []int{192})
			lower(t, &recoverSyncEvery, 16)
		},
		want: []string{"Recovery time", "crash", "clean", "Durable ingest overhead", "sync-every=1", "allocs/event"},
	},
	"replicate": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &replicateEvents, []int{192})
			lower(t, &replicateRates, []int{1000})
		},
		want: []string{"Catch-up time", "stream", "ckpt", "Steady-state follower lag", "final lag"},
	},
	// A sub-second timeline at a modest fixed rate: the smoke checks the
	// open-loop machinery (calibration, per-second accounting, both variant
	// summary lines), not the overload physics — scripts/overload_smoke.sh
	// covers those at realistic pressure.
	"overload": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &OverloadRate, 400)
			lower(t, &overloadPhase, 300*time.Millisecond)
		},
		want: []string{
			"sustainable", "offered burst 400",
			"OPENLOOP static", "OPENLOOP adaptive",
			"retry_after_ok=true", "lost=0", "overload plane",
		},
	},
}

func TestEveryExperimentHasSmoke(t *testing.T) {
	for _, e := range Experiments {
		if _, ok := smokes[e.Name]; !ok {
			t.Errorf("experiment %q is registered but has no smoke row", e.Name)
		}
	}
	for name := range smokes {
		if _, ok := Lookup(name); !ok {
			t.Errorf("smoke row %q names no registered experiment", name)
		}
	}
}

// runSmoke runs the named experiments at tinyOptions scale and checks their
// rows' output assertions.
func runSmoke(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q is not registered", name)
		}
		row := smokes[name]
		var buf bytes.Buffer
		o := tinyOptions(&buf)
		if row.tune != nil {
			row.tune(t, &o)
		}
		if err := e.Run(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range row.want {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("%s output missing %q:\n%s", name, want, buf.String())
			}
		}
	}
}

// One named test per experiment, so a failure (and `go test -run`) names it.
func TestTable1Smoke(t *testing.T)    { runSmoke(t, "table1") }
func TestTable2Smoke(t *testing.T)    { runSmoke(t, "table2") }
func TestTable3Smoke(t *testing.T)    { runSmoke(t, "table3") }
func TestFig1Smoke(t *testing.T)      { runSmoke(t, "fig1") }
func TestFig3aSmoke(t *testing.T)     { runSmoke(t, "fig3a") }
func TestFig3bSmoke(t *testing.T)     { runSmoke(t, "fig3b") }
func TestFig4Smoke(t *testing.T)      { runSmoke(t, "fig4") }
func TestFinetuneSmoke(t *testing.T)  { runSmoke(t, "finetune") }
func TestRecoverSmoke(t *testing.T)   { runSmoke(t, "recover") }
func TestReplicateSmoke(t *testing.T) { runSmoke(t, "replicate") }
func TestLoadOpenSmoke(t *testing.T)  { runSmoke(t, "overload") }
func TestAblationsSmoke(t *testing.T) {
	runSmoke(t, "ablation-encoder", "ablation-decoder", "ablation-cache", "ablation-heuristics")
}

// TestUnknownDatasetIsAnError: a typo in -datasets is a usage error naming
// the real datasets, not a panic out of loadDatasets.
func TestUnknownDatasetIsAnError(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Datasets = []string{"wikipedai"}
	e, _ := Lookup("table2")
	err := e.Run(o)
	if err == nil {
		t.Fatal("an unknown dataset name must be an error")
	}
	for _, want := range []string{`"wikipedai"`, "wikipedia", "gdelt"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("experiment ran despite the bad dataset name:\n%s", buf.String())
	}
}
