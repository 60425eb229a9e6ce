package main

import (
	"time"

	"taser/internal/tgraph"
)

// probeTgraph times internal/tgraph's public build paths on the workload's
// own event list: the packed T-CSR build the dataset generator runs at
// set-up, and the streaming Builder that serving ingest appends to and
// snapshots every snapshotEvery events.
func probeTgraph(g *tgraph.Graph, numNodes, snapshotEvery int) metrics {
	start := time.Now()
	tgraph.BuildTCSR(g)
	m := metrics{"tgraph.tcsr_build_ms": msSince(start)}

	b := tgraph.NewBuilder(numNodes)
	var addNS, snapNS time.Duration
	snaps := 0
	for lo := 0; lo < len(g.Events); lo += snapshotEvery {
		hi := min(lo+snapshotEvery, len(g.Events))
		t0 := time.Now()
		for _, ev := range g.Events[lo:hi] {
			if err := b.Add(ev.Src, ev.Dst, ev.Time); err != nil {
				panic(err) // the events came from a valid graph
			}
		}
		addNS += time.Since(t0)
		t0 = time.Now()
		b.Snapshot()
		snapNS += time.Since(t0)
		snaps++
	}
	m["tgraph.add_ns_per_event"] = float64(addNS) / float64(len(g.Events))
	m["tgraph.snapshot_us"] = float64(snapNS) / 1e3 / float64(snaps)
	return m
}
