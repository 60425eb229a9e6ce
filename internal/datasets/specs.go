package datasets

import "fmt"

// Scale multiplies the default event counts of every spec; 1.0 is the
// laptop-friendly default documented in DESIGN.md (~100× below the paper).
//
// The five specs mirror Table II's qualitative profile:
//
//	Wikipedia  — small bipartite, edge features only, moderate noise
//	Reddit     — larger bipartite, edge features only, strong recurrence
//	Flights    — general graph, node features only, dense repeated routes
//	MovieLens  — large sparse bipartite, edge features only
//	GDELT      — general knowledge graph, node AND edge features
func Wikipedia(scale float64, seed uint64) *Dataset {
	return Generate(Spec{
		Name: "wikipedia", NumNodes: 900, NumSrc: 720, NumEvents: sc(9000, scale),
		NodeDim: 0, EdgeDim: 32,
		NoiseRate: 0.20, DriftRate: 2.0, RepeatRate: 0.5, Skew: 1.1,
		Seed: seed,
	})
}

// Reddit mirrors the Reddit user–subreddit graph: heavier recurrence (users
// post repeatedly in the same communities) and more events.
func Reddit(scale float64, seed uint64) *Dataset {
	return Generate(Spec{
		Name: "reddit", NumNodes: 1100, NumSrc: 1000, NumEvents: sc(14000, scale),
		NodeDim: 0, EdgeDim: 32,
		NoiseRate: 0.15, DriftRate: 1.5, RepeatRate: 0.65, Skew: 1.2,
		Seed: seed,
	})
}

// Flights mirrors the flight-traffic graph: general topology, node features
// only, very high route recurrence.
func Flights(scale float64, seed uint64) *Dataset {
	return Generate(Spec{
		Name: "flights", NumNodes: 800, NumSrc: 0, NumEvents: sc(12000, scale),
		NodeDim: 32, EdgeDim: 0,
		NoiseRate: 0.12, DriftRate: 1.0, RepeatRate: 0.75, Skew: 1.0,
		Seed: seed,
	})
}

// MovieLens mirrors the user–movie tagging graph: the sparsest bipartite
// setting with many cold-start users.
func MovieLens(scale float64, seed uint64) *Dataset {
	return Generate(Spec{
		Name: "movielens", NumNodes: 3200, NumSrc: 2900, NumEvents: sc(16000, scale),
		NodeDim: 0, EdgeDim: 40,
		NoiseRate: 0.25, DriftRate: 2.5, RepeatRate: 0.35, Skew: 1.3,
		Seed: seed,
	})
}

// GDELT mirrors the event knowledge graph: both feature kinds, strong drift
// (global news topics shift quickly).
func GDELT(scale float64, seed uint64) *Dataset {
	return Generate(Spec{
		Name: "gdelt", NumNodes: 1200, NumSrc: 0, NumEvents: sc(16000, scale),
		NodeDim: 48, EdgeDim: 32,
		NoiseRate: 0.18, DriftRate: 3.0, RepeatRate: 0.45, Skew: 1.1,
		Seed: seed,
	})
}

// CheckScale rejects a scale no run can mean — zero, negative or NaN. The
// commands call it on their -scale flag before generating anything.
func CheckScale(scale float64) error {
	if !(scale > 0) {
		return fmt.Errorf("datasets: scale must be positive (got %v)", scale)
	}
	return nil
}

func sc(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 100 {
		n = 100
	}
	return n
}

// All returns every generator keyed by name, in the paper's column order.
func All(scale float64, seed uint64) []*Dataset {
	return []*Dataset{
		Wikipedia(scale, seed),
		Reddit(scale, seed),
		Flights(scale, seed),
		MovieLens(scale, seed),
		GDELT(scale, seed),
	}
}

// ByName generates a single dataset by its Table II name.
func ByName(name string, scale float64, seed uint64) (*Dataset, bool) {
	switch name {
	case "wikipedia":
		return Wikipedia(scale, seed), true
	case "reddit":
		return Reddit(scale, seed), true
	case "flights":
		return Flights(scale, seed), true
	case "movielens":
		return MovieLens(scale, seed), true
	case "gdelt":
		return GDELT(scale, seed), true
	}
	return nil, false
}
