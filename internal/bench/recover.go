package bench

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"taser/internal/serve"
	"taser/internal/wal"
)

// recoverExp measures the durability subsystem (DESIGN.md §11) along both axes
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
func recoverExp(o Options) (string, []Row, error) {
	fx, err := newServingFixture(o)
	if err != nil {
		return "", nil, err
	}
	title := fmt.Sprintf("Durability (%s graph, edge dim %d, sync every %d)",
		fx.ds.Spec.Name, fx.ds.Spec.EdgeDim, recoverSyncEvery)
	var rows []Row
	for _, n := range recoverEvents {
		for _, crash := range []bool{true, false} {
			r, err := recoverRows(fx, n, crash)
			if err != nil {
				return "", nil, err
			}
			rows = append(rows, r...)
		}
	}
	for _, mode := range []struct {
		label     string
		syncEvery int // 0 = durability off
	}{
		{"off", 0},
		{fmt.Sprintf("sync-every=%d", recoverSyncEvery), recoverSyncEvery},
		{"sync-every=1", 1},
	} {
		r, err := overheadRows(fx, mode.label, mode.syncEvery)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, r...)
	}
	return title, rows, nil
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

// recoverRows ingests n events into a durable engine, ends the process's life
// either by fault-injected kill (crash: the final checkpoint and any unsynced
// tail are lost) or by clean Close (final checkpoint covers everything), then
// times Recover on a fresh engine over the surviving store.
func recoverRows(fx *servingFixture, n int, crash bool) ([]Row, error) {
	syncEvery := recoverSyncEvery
	dir, err := os.MkdirTemp("", "taser-recover-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ff := wal.NewFaultFS(wal.OSFS{})
	dur := serve.Durability{Dir: dir, SyncEvery: syncEvery, FS: ff}
	e, err := fx.durableEngine(dur)
	if err != nil {
		return nil, err
	}
	if err := fx.feed(e, n); err != nil {
		e.Close()
		return nil, err
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
		return nil, err
	}
	defer rec.Close()
	rep, err := rec.Recover()
	if err != nil {
		return nil, err
	}
	recovered := rep.CheckpointEvents + rep.ReplayedEvents
	perEvent := 0.0
	if recovered > 0 {
		perEvent = float64(rep.Duration.Microseconds()) / float64(recovered)
	}
	g, v := "recovery time vs stream length", fmt.Sprintf("%d clean", n)
	if crash {
		v = fmt.Sprintf("%d crash", n)
	}
	return []Row{
		{g, v, "recovered", float64(recovered), ""},
		{g, v, "ckpt", float64(rep.CheckpointEvents), ""},
		{g, v, "replayed", float64(rep.ReplayedEvents), ""},
		{g, v, "recover", float64(rep.Duration.Microseconds()) / 1000, "ms"},
		{g, v, "per event", perEvent, "µs"},
	}, nil
}

// overheadRows times overheadEvents ingests and counts heap allocations per
// event (runtime.MemStats.Mallocs delta — unaffected by GC timing) for one
// durability mode.
func overheadRows(fx *servingFixture, label string, syncEvery int) ([]Row, error) {
	var dur serve.Durability
	var dir string
	if syncEvery > 0 {
		d, err := os.MkdirTemp("", "taser-recover-*")
		if err != nil {
			return nil, err
		}
		dir = d
		defer os.RemoveAll(dir)
		dur = serve.Durability{Dir: dir, SyncEvery: syncEvery}
	}
	e, err := fx.durableEngine(dur)
	if err != nil {
		return nil, err
	}
	defer e.Close()

	// Warm the append paths so slice growth doesn't bill the measured window.
	if err := fx.feed(e, 256); err != nil {
		return nil, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := fx.feed(e, overheadEvents); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	g := fmt.Sprintf("durable ingest overhead (%d events)", overheadEvents)
	return []Row{
		{g, label, "ingest", float64(overheadEvents) / elapsed.Seconds(), "1/s"},
		{g, label, "per event", float64(elapsed.Microseconds()) / overheadEvents, "µs"},
		{g, label, "allocs", float64(after.Mallocs-before.Mallocs) / overheadEvents, "per event"},
	}, nil
}
