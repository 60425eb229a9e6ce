package bench

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"taser/internal/mathx"
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
func replicateExp(o Options) error {
	fx, err := newServingFixture(o)
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Catch-up time vs stream length (%s graph, sync every 64, poll 1ms)\n", fx.ds.Spec.Name)
	fmt.Fprintf(o.Out, "%-8s %-7s | %9s %9s | %12s %12s\n",
		"events", "path", "applied", "polls", "catchup(ms)", "µs/event")
	for _, n := range replicateEvents {
		for _, ckpt := range []bool{false, true} {
			row, err := replicateCatchupRow(fx, n, ckpt)
			if err != nil {
				return err
			}
			fmt.Fprint(o.Out, row)
		}
	}

	fmt.Fprintf(o.Out, "\nSteady-state follower lag vs ingest rate (%.1fs window per rate)\n",
		lagWindow.Seconds())
	fmt.Fprintf(o.Out, "%-10s | %10s %10s %10s %10s\n",
		"target ev/s", "actual", "mean lag", "max lag", "final lag")
	for _, rate := range replicateRates {
		row, err := replicateLagRow(fx, rate)
		if err != nil {
			return err
		}
		fmt.Fprint(o.Out, row)
	}
	return nil
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
	dir, err := os.MkdirTemp("", "taser-repl-*")
	if err != nil {
		return nil, nil, nil, err
	}
	e, err := fx.durableEngine(serve.Durability{Dir: dir, SyncEvery: 64})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	l, err := replica.NewLeader(e)
	if err != nil {
		e.Close()
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	ts := httptest.NewServer(l.Handler())
	cleanup := func() {
		ts.Close()
		e.Close()
		os.RemoveAll(dir)
	}
	return e, ts, cleanup, nil
}

// startBenchFollower builds a durable follower engine and attaches it to the
// leader's server with a tight poll interval.
func startBenchFollower(fx *servingFixture, leaderURL string) (*serve.Engine, *replica.Follower, func(), error) {
	dir, err := os.MkdirTemp("", "taser-repl-f-*")
	if err != nil {
		return nil, nil, nil, err
	}
	fe, err := fx.durableEngine(serve.Durability{Dir: dir, SyncEvery: 64})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	f, err := replica.StartFollower(replica.FollowerConfig{
		Engine: fe, Leader: leaderURL, PollInterval: time.Millisecond,
	})
	if err != nil {
		fe.Close()
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	cleanup := func() {
		f.Close()
		fe.Close()
		os.RemoveAll(dir)
	}
	return fe, f, cleanup, nil
}

// replicateCatchupRow ingests n events into a leader, optionally seals them
// in a checkpoint, then times a fresh follower from StartFollower to parity
// with the leader's synced sequence.
func replicateCatchupRow(fx *servingFixture, n int, ckpt bool) (string, error) {
	e, ts, cleanup, err := replicatePair(fx)
	if err != nil {
		return "", err
	}
	defer cleanup()
	if err := fx.feedSynthetic(e, n); err != nil {
		return "", err
	}
	if ckpt {
		if err := e.Checkpoint(); err != nil {
			return "", err
		}
	}
	synced := e.Stats().WALSynced

	start := time.Now()
	_, f, fCleanup, err := startBenchFollower(fx, ts.URL)
	if err != nil {
		return "", err
	}
	defer fCleanup()
	for f.Status().Applied < synced {
		if st := f.Status(); st.State == replica.StateFailed {
			return "", fmt.Errorf("bench: follower failed mid-catch-up: %v", st.Err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)

	st := f.Status()
	path := "stream"
	if ckpt {
		path = "ckpt"
	}
	perEvent := 0.0
	if st.Applied > 0 {
		perEvent = float64(elapsed.Microseconds()) / float64(st.Applied)
	}
	return fmt.Sprintf("%-8d %-7s | %9d %9d | %12.2f %12.2f\n",
		n, path, st.Applied, st.Polls, float64(elapsed.Microseconds())/1000, perEvent), nil
}

// replicateLagRow feeds the leader at the target rate for lagWindow while
// sampling the follower's lag every 10ms, then reports the achieved rate and
// the lag profile.
func replicateLagRow(fx *servingFixture, rate int) (string, error) {
	numNodes := fx.ds.Spec.NumNodes
	e, ts, cleanup, err := replicatePair(fx)
	if err != nil {
		return "", err
	}
	defer cleanup()
	// A warm prefix so neither side measures cold-start slice growth.
	if err := fx.feedSynthetic(e, 256); err != nil {
		return "", err
	}
	_, f, fCleanup, err := startBenchFollower(fx, ts.URL)
	if err != nil {
		return "", err
	}
	defer fCleanup()

	// Pace the leader: a batch every 5ms sized to the target rate.
	const tick = 5 * time.Millisecond
	batch := rate * int(tick) / int(time.Second)
	if batch < 1 {
		batch = 1
	}
	rng := mathx.NewRNG(fx.o.Seed ^ 0x1a9)
	tm, _ := e.Watermark()
	var fed int
	var sumLag, maxLag, samples uint64
	start := time.Now()
	nextSample := start
	for time.Since(start) < lagWindow {
		for i := 0; i < batch; i++ {
			tm += rng.Float64()
			if err := e.Ingest(int32(rng.Intn(numNodes)), int32(rng.Intn(numNodes)), tm, nil); err != nil {
				return "", err
			}
			fed++
		}
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
	return fmt.Sprintf("%-10d | %10.0f %10.1f %10d %10d\n",
		rate, actual, meanLag, maxLag, finalLag), nil
}
