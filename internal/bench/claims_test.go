package bench

// The paper's claims, asserted on the rows the experiments return (CI runs
// this file by name: `go test -run Claim ./internal/bench`, without -short).
//
// Covered, always on — structural properties that hold at any scale:
//   - Fig. 3(b): the frequency cache's hit rate never exceeds the oracle's,
//     and neither falls as capacity grows from 10% to 20% to 30%.
//   - Table III: a line's total is NF+AS+FS+PP and Baseline's speedup is 1.
//   - Fig. 4: exactly the n > m cells are absent.
//
// Covered, skipped under -short (four trainings, ~30 s):
//   - Table I's direction at the CLI default profile on wikipedia: TASER's
//     test MRR is above Baseline's for both backbones. It does NOT hold at
//     scale 0.1 / 3 epochs (EXPERIMENTS.md records both), so the test pins
//     the profile at which it was reproduced rather than a smaller one tuned
//     until green.
//   - §III-A on the same TASER runs: adaptive mini-batch selection avoids
//     noise. A noise training edge's mean score P(e) (Eq. 11) is below a
//     clean one's, and noise's share of the selector's mass is below its
//     base rate among training edges.
//
// Not covered: every timing-direction claim — Fig. 3(a)'s finder ordering,
// Table III's NF and FS falling as the GPU finder and the cache are switched
// on, Fig. 1's Prep share. On a shared 1–2 vCPU host they are not robust
// enough for tier-1, and on this CPU substrate the adaptive sampler (AS), not
// mini-batch generation, is the largest stage of a step (DESIGN.md §1), so
// only directions, never the paper's shares, could be asserted anyway. The
// measured shares are committed as BENCH_<n>.json (`make bench-record`).

import (
	"fmt"
	"io"
	"math"
	"testing"
)

func TestClaimFrequencyCacheUnderOracle(t *testing.T) {
	rows := tinyRows(t, "fig3b")
	for epoch := 1; epoch <= 3; epoch++ {
		v := fmt.Sprintf("epoch %d", epoch)
		var prevTaser, prevOracle float64
		for _, ratio := range []string{"10%", "20%", "30%"} {
			taser := mustCell(t, rows, "wikipedia", v, "taser "+ratio)
			oracle := mustCell(t, rows, "wikipedia", v, "oracle "+ratio)
			if taser > oracle {
				t.Errorf("%s at %s: frequency cache hits %.1f%%, above the oracle's %.1f%%", v, ratio, taser, oracle)
			}
			if taser < prevTaser || oracle < prevOracle {
				t.Errorf("%s: hit rate fell as capacity grew to %s (taser %.1f → %.1f, oracle %.1f → %.1f)",
					v, ratio, prevTaser, taser, prevOracle, oracle)
			}
			prevTaser, prevOracle = taser, oracle
		}
	}
}

func TestClaimTable3TotalsAndSpeedup(t *testing.T) {
	rows := tinyRows(t, "table3")
	for _, g := range []string{"wikipedia / tgat", "wikipedia / graphmixer"} {
		for _, v := range table3Variants {
			sum := 0.0
			for _, phase := range []string{"NF", "AS", "FS", "PP"} {
				sum += mustCell(t, rows, g, v.name, phase)
			}
			if total := mustCell(t, rows, g, v.name, "total"); math.Abs(total-sum) > 1e-9 {
				t.Errorf("%s %s: total %v, phases sum to %v", g, v.name, total, sum)
			}
		}
		if s := mustCell(t, rows, g, "Baseline", "speedup"); s != 1 {
			t.Errorf("%s: Baseline's speedup over itself is %v", g, s)
		}
	}
}

func TestClaimFig4GridIsTriangular(t *testing.T) {
	rows := tinyRows(t, "fig4")
	for _, g := range []string{"wikipedia / tgat", "wikipedia / graphmixer"} {
		for _, n := range []int{5, 10, 15, 20} {
			for _, m := range []int{10, 15, 20, 25} {
				if _, ok := cell(rows, g, fmt.Sprintf("n=%d", n), fmt.Sprintf("m=%d", m)); ok != (n <= m) {
					t.Errorf("%s: cell (m=%d, n=%d) present = %v", g, m, n, ok)
				}
			}
		}
	}
}

func TestClaimTaserBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models at the CLI default profile (~30 s)")
	}
	// scale 0.25, 6 epochs, hidden 24, batch 150, lr 3e-3, 300 eval edges, seed 42
	o := Options{Out: io.Discard}.Normalize()
	ds := o.loadDatasets([]string{"wikipedia"})[0]
	baseline, full := table1Variants[0], table1Variants[3]
	for _, model := range backbones {
		base, err := o.accuracy(ds, model, baseline.set)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := o.trainer(ds, model, full.set)
		if err != nil {
			t.Fatal(err)
		}
		_, _, taser := tr.Run()
		t.Logf("%s: %s %.4f, %s %.4f (%+.4f)", model, baseline.name, base, full.name, taser, taser-base)
		if !(taser > base) {
			t.Errorf("%s: TASER's test MRR %.4f is not above Baseline's %.4f", model, taser, base)
		}

		var noiseSum, cleanSum float64
		var noiseN, cleanN int
		for e := 0; e < tr.Selector.Len(); e++ {
			if p := tr.Selector.Score(e); ds.Noise[e] {
				noiseSum, noiseN = noiseSum+p, noiseN+1
			} else {
				cleanSum, cleanN = cleanSum+p, cleanN+1
			}
		}
		ratio := (noiseSum / float64(noiseN)) / (cleanSum / float64(cleanN))
		share, rate := noiseSum/(noiseSum+cleanSum), float64(noiseN)/float64(noiseN+cleanN)
		t.Logf("%s: noise/clean mean score %.3f; noise holds %.1f%% of the selector's mass, %.1f%% of training edges",
			model, ratio, 100*share, 100*rate)
		if !(ratio < 1) {
			t.Errorf("%s: a noise edge's mean score is %.3f of a clean edge's, want below 1", model, ratio)
		}
		if !(share < rate) {
			t.Errorf("%s: noise holds %.1f%% of the selector's mass, not below its %.1f%% base rate", model, 100*share, 100*rate)
		}
	}
}
