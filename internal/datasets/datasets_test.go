package datasets

import (
	"math"
	"testing"

	"taser/internal/mathx"
)

func tinySpec(seed uint64) Spec {
	return Spec{
		Name: "tiny", NumNodes: 50, NumSrc: 40, NumEvents: 2000,
		NodeDim: 4, EdgeDim: 6,
		NoiseRate: 0.2, DriftRate: 1, RepeatRate: 0.5, Skew: 1.1,
		Seed: seed,
	}
}

func TestGenerateBasicInvariants(t *testing.T) {
	d := Generate(tinySpec(1))
	if len(d.Graph.Events) != 2000 {
		t.Fatal("event count")
	}
	if d.NodeFeat.Rows != 50 || d.NodeFeat.Cols != 4 {
		t.Fatal("node feature shape")
	}
	if d.EdgeFeat.Rows != 2000 || d.EdgeFeat.Cols != 6 {
		t.Fatal("edge feature shape")
	}
	if d.TCSR == nil || d.TCSR.NumNodes() != 50 {
		t.Fatal("T-CSR")
	}
	// Chronological 60/20/20 split.
	if d.TrainEnd != 1200 || d.ValEnd != 1600 {
		t.Fatalf("splits %d/%d", d.TrainEnd, d.ValEnd)
	}
	if d.TrainEvents()+d.ValEvents()+d.TestEvents() != 2000 {
		t.Fatal("split accounting")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(tinySpec(7))
	b := Generate(tinySpec(7))
	for i := range a.Graph.Events {
		if a.Graph.Events[i] != b.Graph.Events[i] {
			t.Fatal("same seed must generate identical events")
		}
	}
	if !a.EdgeFeat.Equal(b.EdgeFeat, 0) {
		t.Fatal("same seed must generate identical features")
	}
	c := Generate(tinySpec(8))
	same := true
	for i := range a.Graph.Events {
		if a.Graph.Events[i] != c.Graph.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestBipartiteConstraint(t *testing.T) {
	d := Generate(tinySpec(2))
	for _, e := range d.Graph.Events {
		if e.Src >= 40 {
			t.Fatalf("source %d outside source partition", e.Src)
		}
		if e.Dst < 40 {
			t.Fatalf("destination %d inside source partition", e.Dst)
		}
	}
}

func TestGeneralGraphAllowsAnyEndpoints(t *testing.T) {
	spec := tinySpec(3)
	spec.NumSrc = 0
	d := Generate(spec)
	sawHighSrc := false
	for _, e := range d.Graph.Events {
		if e.Src == e.Dst {
			t.Fatal("self loops must be avoided")
		}
		if e.Src >= 40 {
			sawHighSrc = true
		}
	}
	if !sawHighSrc {
		t.Fatal("general graph should use the whole node range as sources")
	}
}

func TestTimestampsStrictlyIncreasing(t *testing.T) {
	d := Generate(tinySpec(4))
	for i := 1; i < len(d.Graph.Events); i++ {
		if d.Graph.Events[i].Time <= d.Graph.Events[i-1].Time {
			t.Fatal("timestamps must increase")
		}
	}
}

func TestNoiseRateApproximate(t *testing.T) {
	d := Generate(tinySpec(5))
	noisy := 0
	for _, b := range d.Noise {
		if b {
			noisy++
		}
	}
	frac := float64(noisy) / float64(len(d.Noise))
	if math.Abs(frac-0.2) > 0.04 {
		t.Fatalf("noise fraction %v want ~0.2", frac)
	}
}

func TestSkewedActivity(t *testing.T) {
	// Power-law activity: the busiest source should dwarf the median.
	d := Generate(tinySpec(6))
	counts := make([]int, 50)
	for _, e := range d.Graph.Events {
		counts[e.Src]++
	}
	maxC, total := 0, 0
	for _, c := range counts[:40] {
		total += c
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(total) / 40
	if float64(maxC) < 3*mean {
		t.Fatalf("activity not skewed: max %d vs mean %v", maxC, mean)
	}
}

func TestRepeatedPartnersExist(t *testing.T) {
	// RepeatRate creates repeated (src, dst) pairs at different times — the
	// recurrence pattern the FE/IE encodings target.
	d := Generate(tinySpec(7))
	type pair struct{ s, d int32 }
	seen := map[pair]int{}
	for _, e := range d.Graph.Events {
		seen[pair{e.Src, e.Dst}]++
	}
	repeats := 0
	for _, c := range seen {
		if c > 1 {
			repeats++
		}
	}
	if repeats < 100 {
		t.Fatalf("expected many repeated pairs, got %d", repeats)
	}
}

func TestNoiseEdgesHaveUninformativeFeatures(t *testing.T) {
	// Genuine edge features are low-rank projections of endpoint latents and
	// must correlate more strongly with a same-source second edge than noise
	// features do. We use a crude proxy: genuine features have higher
	// average pairwise |cosine| within a source's edges than noise features
	// have with anything.
	d := Generate(tinySpec(8))
	cos := func(a, b []float64) float64 {
		var dot, na, nb float64
		for i := range a {
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
		}
		if na == 0 || nb == 0 {
			return 0
		}
		return dot / math.Sqrt(na*nb)
	}
	// Collect per-source genuine edges.
	bySrc := map[int32][]int{}
	for i, e := range d.Graph.Events {
		if !d.Noise[i] {
			bySrc[e.Src] = append(bySrc[e.Src], i)
		}
	}
	var genuine, cross mathxWelford
	rng := mathx.NewRNG(9)
	for src, idxs := range bySrc {
		if len(idxs) < 2 {
			continue
		}
		a, b := idxs[0], idxs[1]
		genuine.add(math.Abs(cos(d.EdgeFeat.Row(a), d.EdgeFeat.Row(b))))
		other := rng.Intn(len(d.Graph.Events))
		cross.add(math.Abs(cos(d.EdgeFeat.Row(a), d.EdgeFeat.Row(other))))
		_ = src
	}
	if genuine.mean() <= cross.mean() {
		t.Fatalf("genuine same-source edges should correlate: %v vs %v",
			genuine.mean(), cross.mean())
	}
}

type mathxWelford struct {
	n   int
	sum float64
}

func (w *mathxWelford) add(x float64) { w.n++; w.sum += x }
func (w *mathxWelford) mean() float64 { return w.sum / math.Max(1, float64(w.n)) }

func TestAllFiveSpecs(t *testing.T) {
	if len(registry) != 5 {
		t.Fatalf("%d datasets registered, want Table II's five", len(registry))
	}
	for _, r := range registry {
		d := r.gen(0.1, 42)
		if d.Spec.Name != r.name {
			t.Fatalf("registered as %q, generates %q", r.name, d.Spec.Name)
		}
		if len(d.Graph.Events) == 0 {
			t.Fatalf("%s: empty", d.Spec.Name)
		}
		if d.Spec.NodeDim > 0 && d.NodeFeat.MaxAbs() == 0 {
			t.Fatalf("%s: node features all zero", d.Spec.Name)
		}
		if d.Spec.EdgeDim > 0 && d.EdgeFeat.MaxAbs() == 0 {
			t.Fatalf("%s: edge features all zero", d.Spec.Name)
		}
		if d.String() == "" {
			t.Fatal("String")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		d, ok := ByName(name, 0.05, 1)
		if !ok || d.Spec.Name != name {
			t.Fatalf("ByName(%s)", name)
		}
	}
	if _, ok := ByName("nope", 1, 1); ok {
		t.Fatal("unknown name must fail")
	}
}

func TestScaleFloor(t *testing.T) {
	d := Wikipedia(0.0001, 1)
	if len(d.Graph.Events) < 100 {
		t.Fatal("scale floor")
	}
}
