package bench

import (
	"fmt"
	"net/http/httptest"
	"time"

	"taser/internal/replica"
	"taser/internal/serve"
)

// replicateExp measures the log-shipping replication subsystem (DESIGN.md §11)
// along the two axes operators size replicas by:
//
// Table A — catch-up time vs stream length, for the two catch-up shapes. The
// stream row joins a leader that never checkpointed, so the follower tails
// the whole WAL over HTTP record by record; the ckpt row joins after a
// leader checkpoint, so one bulk shipment covers the stream and the tail
// loop only confirms. Both should grow linearly in stream length — the
// stream row is the network sibling of the crash row in -exp recover, the
// ckpt row of its clean row — and the gap between them is what checkpoint
// shipping buys a fresh replica.
//
// Table B — steady-state follower lag vs leader ingest rate: the leader
// ingests paced synthetic events while the follower tails; lag (leader
// synced minus follower applied) is sampled throughout. Lag that holds
// steady means the follower absorbs the rate; lag that climbs means the
// rate exceeds one replica's apply throughput.
func replicateExp(o Options) (string, []Row, error) {
	fx, err := newServingFixture(o)
	if err != nil {
		return "", nil, err
	}
	title := fmt.Sprintf("Replication (%s graph, sync every 64, poll 1ms)", fx.ds.Spec.Name)
	var rows []Row
	for _, n := range replicateEvents {
		for _, ckpt := range []bool{false, true} {
			r, err := replicateCatchupRows(fx, n, ckpt)
			if err != nil {
				return "", nil, err
			}
			rows = append(rows, r...)
		}
	}
	for _, rate := range replicateRates {
		r, err := replicateLagRows(fx, rate)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, r...)
	}
	return title, rows, nil
}

// replLag reads follower-applied before leader-synced, so the later synced
// value can only be larger and the subtraction cannot wrap.
func replLag(e *serve.Engine, f *replica.Follower) uint64 {
	applied := f.Status().Applied
	if synced := e.Stats().WALSynced; synced > applied {
		return synced - applied
	}
	return 0
}

// lagWindow is how long Table B feeds each rate: long enough for the lag to
// reach its steady shape, short enough to keep the experiment CI-sized.
const lagWindow = 1500 * time.Millisecond

// Knobs of the replication experiment; variables so the package smoke test
// can shorten the run.
var (
	replicateEvents = []int{1024, 4096, 16384} // catch-up stream lengths
	replicateRates  = []int{1000, 4000, 16000} // leader ingest rates, events/sec
)

// replicatePair builds a durable leader engine over its own store plus an
// httptest server shipping its log; cleanup closes everything.
func replicatePair(fx *servingFixture) (*serve.Engine, *httptest.Server, func(), error) {
	e, closeStore, err := fx.tempStore()
	if err != nil {
		return nil, nil, nil, err
	}
	l, err := replica.NewLeader(e)
	if err != nil {
		closeStore()
		return nil, nil, nil, err
	}
	ts := httptest.NewServer(l.Handler())
	return e, ts, func() { ts.Close(); closeStore() }, nil
}

// startBenchFollower attaches a durable follower engine over its own store to
// the leader's server with a tight poll interval.
func startBenchFollower(fx *servingFixture, leaderURL string) (*replica.Follower, func(), error) {
	fe, closeStore, err := fx.tempStore()
	if err != nil {
		return nil, nil, err
	}
	f, err := replica.StartFollower(replica.FollowerConfig{
		Engine: fe, Leader: leaderURL, PollInterval: time.Millisecond,
	})
	if err != nil {
		closeStore()
		return nil, nil, err
	}
	return f, func() { f.Close(); closeStore() }, nil
}

// replicateCatchupRows ingests n events into a leader, optionally seals them
// in a checkpoint, then times a fresh follower from StartFollower to parity
// with the leader's synced sequence.
func replicateCatchupRows(fx *servingFixture, n int, ckpt bool) ([]Row, error) {
	e, ts, cleanup, err := replicatePair(fx)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if err := fx.feed(e, n); err != nil {
		return nil, err
	}
	if ckpt {
		if err := e.Checkpoint(); err != nil {
			return nil, err
		}
	}
	synced := e.Stats().WALSynced

	start := time.Now()
	f, fCleanup, err := startBenchFollower(fx, ts.URL)
	if err != nil {
		return nil, err
	}
	defer fCleanup()
	for f.Status().Applied < synced {
		if st := f.Status(); st.State == replica.StateFailed {
			return nil, fmt.Errorf("bench: follower failed mid-catch-up: %v", st.Err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)

	st := f.Status()
	g, v := "catch-up time vs stream length", fmt.Sprintf("%d stream", n)
	if ckpt {
		v = fmt.Sprintf("%d ckpt", n)
	}
	perEvent := 0.0
	if st.Applied > 0 {
		perEvent = float64(elapsed.Microseconds()) / float64(st.Applied)
	}
	return []Row{
		{g, v, "applied", float64(st.Applied), ""},
		{g, v, "polls", float64(st.Polls), ""},
		{g, v, "catchup", float64(elapsed.Microseconds()) / 1000, "ms"},
		{g, v, "per event", perEvent, "µs"},
	}, nil
}

// replicateLagRows feeds the leader at the target rate for lagWindow while
// sampling the follower's lag every 10ms, then reports the achieved rate and
// the lag profile.
func replicateLagRows(fx *servingFixture, rate int) ([]Row, error) {
	e, ts, cleanup, err := replicatePair(fx)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	// A warm prefix so neither side measures cold-start slice growth.
	if err := fx.feed(e, 256); err != nil {
		return nil, err
	}
	f, fCleanup, err := startBenchFollower(fx, ts.URL)
	if err != nil {
		return nil, err
	}
	defer fCleanup()

	// Pace the leader: a batch every 5ms sized to the target rate.
	const tick = 5 * time.Millisecond
	batch := rate * int(tick) / int(time.Second)
	if batch < 1 {
		batch = 1
	}
	var fed int
	var sumLag, maxLag, samples uint64
	start := time.Now()
	nextSample := start
	for time.Since(start) < lagWindow {
		if err := fx.feed(e, batch); err != nil {
			return nil, err
		}
		fed += batch
		if now := time.Now(); now.After(nextSample) {
			lag := replLag(e, f)
			sumLag += lag
			if lag > maxLag {
				maxLag = lag
			}
			samples++
			nextSample = now.Add(10 * time.Millisecond)
		}
		time.Sleep(tick)
	}
	elapsed := time.Since(start)
	finalLag := replLag(e, f)
	actual := float64(fed) / elapsed.Seconds()
	meanLag := 0.0
	if samples > 0 {
		meanLag = float64(sumLag) / float64(samples)
	}
	g := fmt.Sprintf("steady-state follower lag vs ingest rate (%.1fs window per rate)", lagWindow.Seconds())
	v := fmt.Sprintf("%d ev/s", rate)
	return []Row{
		{g, v, "actual", actual, "1/s"},
		{g, v, "mean lag", meanLag, "events"},
		{g, v, "max lag", float64(maxLag), ""},
		{g, v, "final lag", float64(finalLag), ""},
	}, nil
}
