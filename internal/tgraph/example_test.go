package tgraph_test

import (
	"fmt"

	"taser/internal/tgraph"
)

// ExampleBuildTCSR shows the batch path: materialize a graph, build the
// T-CSR, and query a temporal neighborhood.
func ExampleBuildTCSR() {
	g, err := tgraph.NewGraph(3, []tgraph.Event{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 2},
		{Src: 1, Dst: 2, Time: 3},
	})
	if err != nil {
		panic(err)
	}
	tc := tgraph.BuildTCSR(g)
	nbr, ts, _ := tc.Adj(0)
	p := tgraph.Pivot(ts, 2.5)
	fmt.Println("neighbors of 0 before t=2.5:", nbr[:p], "at times", ts[:p])
	// Output: neighbors of 0 before t=2.5: [1 2] at times [1 2]
}

// ExampleBuilder shows the streaming path: ingest events one at a time,
// publish a snapshot mid-stream and query it while ingest continues.
func ExampleBuilder() {
	b := tgraph.NewBuilder(3)
	_ = b.Add(0, 1, 1)
	_ = b.Add(0, 2, 2)
	_, tc := b.Snapshot()
	_ = b.Add(0, 1, 3)
	nbr, ts, _ := tc.Adj(0)
	fmt.Println("snapshot neighborhood of 0 before t=10:", nbr[:tgraph.Pivot(ts, 10)])
	fmt.Println("snapshot degree of 0:", tc.Degree(0))
	// Output:
	// snapshot neighborhood of 0 before t=10: [1 2]
	// snapshot degree of 0: 2
}
