package main

import (
	"time"

	"taser/internal/cache"
	"taser/internal/featstore"
	"taser/internal/tensor"
)

// sliceCounts accumulates the rows requested from the feature stores.
type sliceCounts struct{ rows int }

// sliceRows is one feature-slicing call under a "featstore.Slice" span.
func sliceRows(tr *tracer, parent, op int, s *featstore.Store, ids []int32, dst *tensor.Matrix, c *sliceCounts) {
	id := tr.begin("featstore.Slice", parent, op)
	s.Slice(ids, dst)
	tr.end(id)
	c.rows += len(ids)
}

// uncachedStore wraps a feature matrix the way the serving path does: no
// cache policy, no transfer accounting.
func uncachedStore(host *tensor.Matrix) *featstore.Store { return featstore.New(host, nil, nil) }

// probeCacheAccess times the frequency cache's per-row bookkeeping on the row
// ids a workload actually sliced (negative ids are padding and are skipped by
// the store before the policy sees them).
func probeCacheAccess(ids []int32, rows int, ratio float64) float64 {
	var real []int32
	for _, id := range ids {
		if id >= 0 {
			real = append(real, id)
		}
	}
	if len(real) == 0 || rows == 0 {
		return 0
	}
	pol := cache.NewFrequency(rows, int(ratio*float64(rows)), 0.7)
	for _, id := range real {
		pol.Access(id)
	}
	pol.EndEpoch()
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, id := range real {
			pol.Access(id)
		}
	}
	return float64(time.Since(start)) / float64(reps*len(real))
}
