package tgraph

import "fmt"

// Tailer consumes a growing event stream exposed through successive Graph
// snapshots. Incremental snapshots (Builder.Snapshot) share the event list
// structurally — each publication's Events is a longer prefix view of the
// same append-only array — so tailing is O(1): the Tailer just remembers how
// far it has read and returns a view of the suffix.
//
// A Tailer is single-consumer state (the online fine-tuner owns one); it is
// not safe for concurrent use.
type Tailer struct {
	next int // index of the first unconsumed event
}

// NextWindow returns the events appended since the previous call as an
// immutable capped view into g's event list, and marks them consumed.
// Successive snapshots must be prefixes of one another (the Builder
// contract); a shorter graph than already consumed is a stream restart and an
// error. If more than window events arrived since the last call, the oldest
// are skipped and only the most recent window events are returned (skipped
// reports how many were dropped). This is the fine-tuner's replay policy —
// when the tuner falls behind the stream, it trains on the freshest window
// instead of replaying an unbounded backlog. window <= 0 means no cap.
func (t *Tailer) NextWindow(g *Graph, window int) (events []Event, skipped int, err error) {
	n := len(g.Events)
	if n < t.next {
		return nil, 0, fmt.Errorf("tgraph: tailer consumed %d events but snapshot has %d (stream restarted?)", t.next, n)
	}
	lo := t.next
	if window > 0 && n-lo > window {
		skipped = n - window - lo
		lo = n - window
	}
	ev := g.Events[lo:n:n]
	t.next = n
	return ev, skipped, nil
}
