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

func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Datasets = nil // Table II always lists all five
	if err := Table2(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"wikipedia", "reddit", "flights", "movielens", "gdelt"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table II missing %s:\n%s", name, out)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Baseline", "TASER", "Improvement", "TGAT", "GraphMixer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Baseline", "+GPU NF", "+20% Cache", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	if err := Fig1(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Prep") {
		t.Fatalf("Fig 1 output:\n%s", buf.String())
	}
}

func TestFig3aSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3a(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"origin-cpu", "tgl-cpu", "taser-gpu"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig 3a missing %q:\n%s", want, out)
		}
	}
}

func TestFig3bSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Epochs = 2
	if err := Fig3b(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "oracle") {
		t.Fatalf("Fig 3b output:\n%s", buf.String())
	}
}

func TestFig4Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	// Shrink the grid cost: tiny dataset already set; run as-is.
	if err := Fig4(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "m=10") || !strings.Contains(out, "n=5") {
		t.Fatalf("Fig 4 output:\n%s", out)
	}
	// n > m cells must be dashes.
	if !strings.Contains(out, "-") {
		t.Fatal("triangular grid expected")
	}
}

func TestAblationsSmoke(t *testing.T) {
	for name, fn := range map[string]func(Options) error{
		"encoder":    AblationEncoder,
		"decoder":    AblationDecoder,
		"cache":      AblationCache,
		"heuristics": AblationHeuristics,
	} {
		var buf bytes.Buffer
		if err := fn(tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty output", name)
		}
	}
}

func TestAllocSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Alloc(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"train-step", "serve-predict", "cold", "warm"} {
		if !strings.Contains(out, want) {
			t.Fatalf("alloc output missing %q:\n%s", want, out)
		}
	}
}

func TestKernelsSmoke(t *testing.T) {
	// Gut the timing loops: the smoke test checks wiring, not measurement
	// quality.
	oldBudget, oldRounds, oldSquares := kernelTimeBudget, kernelTimeRounds, kernelSquares
	kernelTimeBudget, kernelTimeRounds, kernelSquares = time.Millisecond, 1, []int{64}
	defer func() { kernelTimeBudget, kernelTimeRounds, kernelSquares = oldBudget, oldRounds, oldSquares }()
	var buf bytes.Buffer
	if err := Kernels(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Dense products", "1389×73×73", "a@bᵀ", "64×64×64"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kernels output missing %q:\n%s", want, out)
		}
	}
}

func TestIngestSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.IngestEvents = []int{1024, 2048}
	o.IngestEvery = 128
	o.IngestNodes = 300
	if err := Ingest(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Incremental vs full-repack", "1024", "2048", "publishes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ingest output missing %q:\n%s", want, out)
		}
	}
}

func TestFinetuneSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.FinetuneEvery = 16
	o.FinetuneNegs = 5
	if err := Finetune(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"frozen", "fine-tuned", "MRR", "swap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("finetune output missing %q:\n%s", want, out)
		}
	}
}

func TestRecoverSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.RecoverEvents = []int{192}
	o.RecoverSyncEvery = 16
	if err := Recover(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Recovery time", "crash", "clean", "Durable ingest overhead", "sync-every=1", "allocs/event"} {
		if !strings.Contains(out, want) {
			t.Fatalf("recover output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadHTTPSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	// Empty ServeAddr self-hosts an engine behind serve.NewHandler on a
	// loopback httptest listener — the same HTTP surface `make loadtest-http`
	// drives against a live taser-serve process.
	o.ServeClients = []int{2}
	o.ServeRequests = 12
	o.ServeIngestRate = 2000
	if err := LoadHTTP(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"server ready", "clients", "qps", "ingested"} {
		if !strings.Contains(out, want) {
			t.Fatalf("loadhttp output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadOpenSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	// A sub-second timeline at a modest fixed rate: the smoke checks the
	// open-loop machinery (calibration, per-second accounting, both variant
	// summary lines), not the overload physics — scripts/overload_smoke.sh
	// covers those at realistic pressure.
	o.OpenLoop = true
	o.OpenRate = 400
	o.OpenDuration = 300 * time.Millisecond
	if err := LoadHTTP(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sustainable", "offered burst 400",
		"OPENLOOP static", "OPENLOOP adaptive",
		"retry_after_ok=true", "lost=0", "overload plane",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("open-loop output missing %q:\n%s", want, out)
		}
	}
}
