package main

import (
	"time"

	"taser/internal/overload"
)

// probeGate times an uncontended Enter/Leave pair on a gate configured like
// the engine's (capacity 2×MaxBatch, default lane weights).
func probeGate(maxQueue, maxBatch, reps int) (float64, error) {
	cfg, err := overload.Config{MaxQueue: maxQueue}.Normalize(maxBatch, 2*time.Millisecond)
	if err != nil {
		return 0, err
	}
	g := overload.NewGate(cfg)
	defer g.Close()
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := g.Enter(overload.LanePredict); err != nil {
			return 0, err
		}
		g.Leave(overload.LanePredict)
	}
	return float64(time.Since(start)) / float64(reps), nil
}
