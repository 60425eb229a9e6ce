package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/train"
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
	v := table1Variants
	if len(v) != 4 || v[0].name != "Baseline" || v[3].name != "TASER" {
		t.Fatalf("variants: %+v", v)
	}
	var cfg train.Config
	v[3].set(&cfg)
	if !cfg.AdaBatch || !cfg.AdaNeighbor {
		t.Fatal("TASER must enable both components")
	}
}

// lower sets a package knob for one test and restores it afterwards.
func lower[T any](t *testing.T, knob *T, v T) {
	old := *knob
	*knob = v
	t.Cleanup(func() { *knob = old })
}

// cell finds one value in an experiment's rows.
func cell(rows []Row, group, variant, metric string) (float64, bool) {
	for _, r := range rows {
		if r.Group == group && r.Variant == variant && r.Metric == metric {
			return r.Value, true
		}
	}
	return 0, false
}

// mustCell is cell for a value that has to be there.
func mustCell(t *testing.T, rows []Row, group, variant, metric string) float64 {
	t.Helper()
	v, ok := cell(rows, group, variant, metric)
	if !ok {
		t.Fatalf("no row (%q, %q, %q) in:\n%+v", group, variant, metric, rows)
	}
	return v
}

// smokes is the package smoke test, one row per registered experiment: how to
// shrink the run below tinyOptions (optional), cells — (group, variant,
// metric) — that must be among the rows, and what else must hold of them.
// TestEveryExperimentHasSmoke fails when the registry and this table disagree.
var smokes = map[string]struct {
	tune  func(t *testing.T, o *Options)
	cells [][3]string
	check func(t *testing.T, rows []Row)
}{
	"table2": {
		tune: func(t *testing.T, o *Options) { o.Datasets = nil }, // Table II always lists all five
		cells: [][3]string{{"", "wikipedia", "|E|"}, {"", "reddit", "|V|"}, {"", "flights", "dv"},
			{"", "movielens", "de"}, {"", "gdelt", "test"},
			{"", "wikipedia", "noise"}, {"", "reddit", "mean deg"}, {"", "gdelt", "max deg"}},
		check: func(t *testing.T, rows []Row) {
			o := tinyOptions(nil)
			for _, name := range datasets.Names() {
				ds, _ := datasets.ByName(name, o.Scale, o.Seed)
				noisy := 0
				for _, b := range ds.Noise {
					if b {
						noisy++
					}
				}
				if got, want := mustCell(t, rows, "", name, "noise"), 100*float64(noisy)/float64(len(ds.Noise)); got != want {
					t.Errorf("%s: noise %v%%, want the noisy share of ds.Noise, %v%%", name, got, want)
				}
				if mean, mx := mustCell(t, rows, "", name, "mean deg"), mustCell(t, rows, "", name, "max deg"); !(mx >= mean && mean > 0) {
					t.Errorf("%s: max deg %v below mean deg %v", name, mx, mean)
				}
			}
		},
	},
	"table1": {
		cells: [][3]string{{"wikipedia", "w/ Ada. Neighbor", "tgat"}, {"wikipedia", "w/ Ada. Mini-Batch", "graphmixer"}},
		check: func(t *testing.T, rows []Row) {
			for _, model := range []string{"tgat", "graphmixer"} {
				base, taser := mustCell(t, rows, "wikipedia", "Baseline", model), mustCell(t, rows, "wikipedia", "TASER", model)
				if imp := mustCell(t, rows, "wikipedia", "(Improvement)", model); imp != taser-base {
					t.Errorf("%s: improvement %v, want TASER − Baseline = %v", model, imp, taser-base)
				}
			}
		},
	},
	"table3": {cells: [][3]string{{"wikipedia / tgat", "+GPU NF", "NF"}, {"wikipedia / graphmixer", "+20% Cache", "speedup"}}},
	"fig1": {
		cells: [][3]string{{"wikipedia / tgat", "n=5", "Prep"}, {"wikipedia / tgat", "n=20", "Prop"}},
		check: func(t *testing.T, rows []Row) {
			if share := mustCell(t, rows, "wikipedia / tgat", "n=10", "Prep share"); !(share > 0 && share < 100) {
				t.Errorf("Prep share %v%% is not a share", share)
			}
		},
	},
	"fig3a": {
		cells: [][3]string{{"wikipedia", "n=25", "gpu-vs-tgl"}},
		check: func(t *testing.T, rows []Row) {
			for _, finder := range []string{"origin-cpu", "tgl-cpu", "taser-gpu"} {
				if s := mustCell(t, rows, "wikipedia", "n=5", finder); !(s > 0) {
					t.Errorf("%s sampled an epoch in %v s", finder, s)
				}
			}
		},
	},
	"fig3b": {
		tune:  func(t *testing.T, o *Options) { o.Epochs = 3 },
		cells: [][3]string{{"wikipedia", "epoch 1", "oracle 10%"}, {"wikipedia", "epoch 3", "taser 30%"}},
	},
	// The grid is triangular (TestClaimFig4GridIsTriangular checks every cell).
	"fig4":                {cells: [][3]string{{"wikipedia / tgat", "n=5", "m=10"}, {"wikipedia / graphmixer", "n=20", "m=25"}}},
	"ablation-encoder":    {cells: [][3]string{{"wikipedia", "full (TE+FE+IE)", "tgat"}, {"wikipedia", "w/o IE", "tgat"}, {"wikipedia", "features only", "tgat"}}},
	"ablation-decoder":    {cells: [][3]string{{"wikipedia", "linear", "tgat"}, {"wikipedia", "gatv2", "graphmixer"}, {"wikipedia", "trans", "tgat"}}},
	"ablation-cache":      {cells: [][3]string{{"wikipedia / tgat", "freq", "hit rate"}, {"wikipedia / tgat", "lru", "FS"}}},
	"ablation-heuristics": {cells: [][3]string{{"wikipedia", "most-recent", "tgat"}, {"wikipedia", "inverse-timespan", "tgat"}, {"wikipedia", "adaptive (TASER)", "tgat"}}},
	"finetune": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &finetuneEvery, 16)
			lower(t, &finetuneNegs, 5)
		},
		cells: [][3]string{{"wikipedia / tgat", "frozen", "1st half"}, {"wikipedia / tgat", "fine-tuned", "p99"},
			{"summary", "fine-tuned − frozen", "2nd half"}},
		check: func(t *testing.T, rows []Row) {
			if mustCell(t, rows, "wikipedia / tgat", "frozen", "swaps") != 0 || mustCell(t, rows, "wikipedia / tgat", "fine-tuned", "swaps") == 0 {
				t.Error("only the fine-tuned arm swaps weights")
			}
		},
	},
	"recover": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &recoverEvents, []int{192})
			lower(t, &recoverSyncEvery, 16)
		},
		cells: [][3]string{{"durable ingest overhead (1024 events)", "off", "allocs"},
			{"durable ingest overhead (1024 events)", "sync-every=1", "ingest"}},
		check: func(t *testing.T, rows []Row) {
			const g = "recovery time vs stream length"
			// A crash loses the final checkpoint (all replay, bar an unsynced
			// tail); a clean shutdown replays nothing.
			if ckpt := mustCell(t, rows, g, "192 crash", "ckpt"); ckpt != 0 {
				t.Errorf("crash path loaded %v events from a checkpoint", ckpt)
			}
			if mustCell(t, rows, g, "192 clean", "recovered") != 192 || mustCell(t, rows, g, "192 clean", "replayed") != 0 {
				t.Error("clean path must recover all 192 events from the checkpoint")
			}
		},
	},
	"replicate": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &replicateEvents, []int{192})
			lower(t, &replicateRates, []int{1000})
		},
		cells: [][3]string{{"catch-up time vs stream length", "192 stream", "catchup"},
			{"steady-state follower lag vs ingest rate (1.5s window per rate)", "1000 ev/s", "final lag"}},
		check: func(t *testing.T, rows []Row) {
			if applied := mustCell(t, rows, "catch-up time vs stream length", "192 ckpt", "applied"); applied != 192 {
				t.Errorf("follower caught up to %v of 192 events", applied)
			}
		},
	},
	// A sub-second timeline at a modest fixed rate: the smoke checks the
	// open-loop machinery (calibration, per-second accounting, every variant's
	// summaries), not the overload physics — scripts/overload_smoke.sh
	// covers those at realistic pressure.
	"overload": {
		tune: func(t *testing.T, o *Options) {
			lower(t, &OverloadRate, 400)
			lower(t, &overloadPhase, 300*time.Millisecond)
		},
		cells: [][3]string{{"summary", "admission", "shed"}, {"summary", "static", "client_dropped"}},
		check: func(t *testing.T, rows []Row) {
			for _, v := range []string{"static", "admission"} {
				// Every launched request is accounted for on the variant's
				// timeline, an arrival the generator dropped included.
				var offered, accounted, dropped float64
				for _, r := range rows {
					switch {
					case r.Group != v:
					case r.Metric == "offered":
						offered += r.Value
					case r.Metric == "completed" || r.Metric == "shed" || r.Metric == "errs":
						accounted += r.Value
					case r.Metric == "client_dropped":
						accounted += r.Value
						dropped += r.Value
					}
				}
				if offered == 0 || accounted != offered {
					t.Errorf("%s: timeline offers %v requests and accounts for %v", v, offered, accounted)
				}
				if got := mustCell(t, rows, "summary", v, "client_dropped"); got != dropped {
					t.Errorf("%s: summary client_dropped %v, timeline %v", v, got, dropped)
				}
				if got := mustCell(t, rows, "summary", v, "client_dropped_share"); got != dropped/offered {
					t.Errorf("%s: summary client_dropped_share %v, timeline %v of %v arrivals", v, got, dropped, offered)
				}
				if mustCell(t, rows, "summary", v, "lost") != 0 || mustCell(t, rows, "summary", v, "retry_after_ok") != 1 {
					t.Errorf("%s: requests lost or shed without Retry-After", v)
				}
				if mustCell(t, rows, "summary", v, "offered") != 400 || !(mustCell(t, rows, "summary", v, "sustainable") > 0) {
					t.Errorf("%s: offered/sustainable rates wrong", v)
				}
			}
			if mustCell(t, rows, "summary", "static", "shed") != 0 {
				t.Error("the static engine has no overload plane to shed with")
			}
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

// tinyRuns memoizes tinyRows: the smoke and the claim test of an experiment
// read one run.
var tinyRuns = map[string][]Row{}

// tinyRows runs the named experiment at its smoke row's scale and returns its
// rows, having rendered them once.
func tinyRows(t *testing.T, name string) []Row {
	t.Helper()
	if rows, ok := tinyRuns[name]; ok {
		return rows
	}
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q is not registered", name)
	}
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	if tune := smokes[name].tune; tune != nil {
		tune(t, &o)
	}
	title, rows, err := e.Rows(o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	Render(&buf, title, rows)
	if title == "" || len(rows) == 0 || !strings.HasPrefix(buf.String(), title+"\n") {
		t.Fatalf("%s: title %q, %d rows, rendered:\n%s", name, title, len(rows), buf.String())
	}
	tinyRuns[name] = rows
	return rows
}

// runSmoke checks the named experiments' smoke rows.
func runSmoke(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		rows := tinyRows(t, name)
		for _, c := range smokes[name].cells {
			mustCell(t, rows, c[0], c[1], c[2])
		}
		if check := smokes[name].check; check != nil {
			check(t, rows)
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

// TestGroupsNameTheDatasetTrained: a table is labelled with the dataset that
// was generated, not with the experiment's default. These five used to train
// on whatever -datasets named under a header that said wikipedia (and
// ablation-cache trained it twice, as "wikipedia" and "reddit").
func TestGroupsNameTheDatasetTrained(t *testing.T) {
	for _, tc := range []struct {
		exp, dataset string
		groups       int
	}{
		{"ablation-encoder", "reddit", 1}, {"ablation-decoder", "reddit", 1},
		{"ablation-heuristics", "reddit", 1}, {"fig4", "reddit", 2}, // one per backbone
		{"ablation-cache", "gdelt", 1},
	} {
		var buf bytes.Buffer
		o := tinyOptions(&buf)
		o.Datasets = []string{tc.dataset}
		e, _ := Lookup(tc.exp)
		_, rows, err := e.Rows(o)
		if err != nil {
			t.Fatalf("%s: %v", tc.exp, err)
		}
		groups := map[string]bool{}
		for _, r := range rows {
			groups[r.Group] = true
			if !strings.Contains(r.Group, tc.dataset) {
				t.Fatalf("%s on %s has a row in group %q", tc.exp, tc.dataset, r.Group)
			}
		}
		if len(groups) != tc.groups {
			t.Errorf("%s on %s: groups %v, want %d", tc.exp, tc.dataset, groups, tc.groups)
		}
	}
}

// TestRenderLayout: a table per group in first-appearance order, a line per
// variant, a column per metric headed with its unit, "-" for an absent cell.
func TestRenderLayout(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf, "title", []Row{
		{"g1", "a", "x", 0.5, "MRR"}, {"g1", "a", "y", 3, ""},
		{"g2", "c", "x", 1.25, "ms"},
		{"g1", "b", "y", 12, ""},
	})
	want := "title\n\ng1\n   x (MRR)   y\na   0.5000   3\nb        -  12\n\ng2\n   x (ms)\nc    1.25\n"
	if buf.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestUnknownDatasetIsAnError: a typo in -datasets is a usage error naming
// the real datasets, not a panic out of loadDatasets.
func TestUnknownDatasetIsAnError(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Datasets = []string{"wikipedai"}
	e, _ := Lookup("table2")
	_, _, err := e.Run(o)
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
