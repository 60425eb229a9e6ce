package bench

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"taser/internal/mathx"
	"taser/internal/serve"
	"taser/internal/wal"
)

// recoverExp measures the durability subsystem (DESIGN.md §9) along both axes
// the design trades between:
//
// Table A — recovery time vs stream length, for the two recovery shapes. The
// crash path loses the process without a final checkpoint (fault injection
// kills the store after the last group commit), so Recover replays the whole
// WAL; the clean path shuts down through Close, so Recover bulk-loads the
// final checkpoint and replays nothing. The gap between the rows is what a
// checkpoint buys; the crash rows' growth with stream length is the cost of
// relying on the log alone.
//
// Table B — durable ingest overhead: events/sec and allocations per event
// with durability off, with the configured group-commit interval, and with
// fsync-per-event (SyncEvery=1). Group commit is the row that must sit within
// a couple of allocations of the non-durable baseline; SyncEvery=1 shows the
// fsync floor a caller opts into for zero-loss ingest.
func recoverExp(o Options) error {
	fx, err := newServingFixture(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "Recovery time vs stream length (%s graph, edge dim %d, sync every %d)\n",
		fx.ds.Spec.Name, fx.ds.Spec.EdgeDim, recoverSyncEvery)
	fmt.Fprintf(o.Out, "%-8s %-7s | %9s %9s %9s | %12s %12s\n",
		"events", "path", "recovered", "ckpt", "replayed", "recover(ms)", "µs/event")
	for _, n := range recoverEvents {
		for _, crash := range []bool{true, false} {
			row, err := recoverRow(fx, n, crash)
			if err != nil {
				return err
			}
			fmt.Fprint(o.Out, row)
		}
	}

	fmt.Fprintf(o.Out, "\nDurable ingest overhead (%d events, group commit vs fsync-per-event)\n",
		overheadEvents)
	fmt.Fprintf(o.Out, "%-16s | %10s %10s %12s\n", "durability", "ev/s", "µs/event", "allocs/event")
	for _, mode := range []struct {
		label     string
		syncEvery int // 0 = durability off
	}{
		{"off", 0},
		{fmt.Sprintf("sync-every=%d", recoverSyncEvery), recoverSyncEvery},
		{"sync-every=1", 1},
	} {
		row, err := overheadRow(fx, mode.label, mode.syncEvery)
		if err != nil {
			return err
		}
		fmt.Fprint(o.Out, row)
	}
	return nil
}

// overheadEvents is the fixed stream length of Table B: long enough to
// amortize warmup, short enough that the fsync-per-event row stays tolerable
// on slow filesystems.
const overheadEvents = 1024

// Knobs of the recovery experiment; variables so the package smoke test can
// shorten the run.
var (
	recoverEvents    = []int{1024, 4096, 16384} // stream lengths, one Table A row pair each
	recoverSyncEvery = 64                       // WAL group-commit interval
)

// recoverRow ingests n events into a durable engine, ends the process's life
// either by fault-injected kill (crash: the final checkpoint and any unsynced
// tail are lost) or by clean Close (final checkpoint covers everything), then
// times Recover on a fresh engine over the surviving store.
func recoverRow(fx *servingFixture, n int, crash bool) (string, error) {
	syncEvery := recoverSyncEvery
	dir, err := os.MkdirTemp("", "taser-recover-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)

	ff := wal.NewFaultFS(wal.OSFS{})
	dur := serve.Durability{Dir: dir, SyncEvery: syncEvery, FS: ff}
	e, err := fx.durableEngine(dur)
	if err != nil {
		return "", err
	}
	if err := fx.feedSynthetic(e, n); err != nil {
		e.Close()
		return "", err
	}
	if crash {
		// Kill the store first: Close's final checkpoint and WAL sync fail,
		// leaving exactly what the group commits already made durable — the
		// state a real crash leaves behind.
		ff.Kill()
	}
	e.Close()

	rec, err := fx.durableEngine(serve.Durability{Dir: dir, SyncEvery: syncEvery})
	if err != nil {
		return "", err
	}
	defer rec.Close()
	rep, err := rec.Recover()
	if err != nil {
		return "", err
	}
	recovered := rep.CheckpointEvents + rep.ReplayedEvents
	perEvent := 0.0
	if recovered > 0 {
		perEvent = float64(rep.Duration.Microseconds()) / float64(recovered)
	}
	path := "clean"
	if crash {
		path = "crash"
	}
	return fmt.Sprintf("%-8d %-7s | %9d %9d %9d | %12.2f %12.2f\n",
		n, path, recovered, rep.CheckpointEvents, rep.ReplayedEvents,
		float64(rep.Duration.Microseconds())/1000, perEvent), nil
}

// overheadRow times overheadEvents ingests and counts heap allocations per
// event (runtime.MemStats.Mallocs delta — unaffected by GC timing) for one
// durability mode.
func overheadRow(fx *servingFixture, label string, syncEvery int) (string, error) {
	numNodes := fx.ds.Spec.NumNodes
	var dur serve.Durability
	var dir string
	if syncEvery > 0 {
		d, err := os.MkdirTemp("", "taser-recover-*")
		if err != nil {
			return "", err
		}
		dir = d
		defer os.RemoveAll(dir)
		dur = serve.Durability{Dir: dir, SyncEvery: syncEvery}
	}
	e, err := fx.durableEngine(dur)
	if err != nil {
		return "", err
	}
	defer e.Close()

	// Warm the append paths so slice growth doesn't bill the measured window.
	if err := fx.feedSynthetic(e, 256); err != nil {
		return "", err
	}

	rng := mathx.NewRNG(fx.o.Seed ^ 0xbadc0de)
	tm, _ := e.Watermark()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < overheadEvents; i++ {
		tm += rng.Float64()
		if err := e.Ingest(int32(rng.Intn(numNodes)), int32(rng.Intn(numNodes)), tm, nil); err != nil {
			return "", err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	perEventUS := float64(elapsed.Microseconds()) / overheadEvents
	allocs := float64(after.Mallocs-before.Mallocs) / overheadEvents
	evPerSec := float64(overheadEvents) / elapsed.Seconds()
	return fmt.Sprintf("%-16s | %10.0f %10.2f %12.2f\n", label, evPerSec, perEventUS, allocs), nil
}
