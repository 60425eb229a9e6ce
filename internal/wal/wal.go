// Package wal gives the serving engine a durable spine: a segmented,
// checksummed write-ahead log for ingest events plus checkpoint files pairing
// a stream prefix with the fine-tuned model weights serving it. The
// append-only tgraph.Builder already gives the ingest stream the shape of a
// replay log — record i of the WAL is event i of the stream — so crash
// recovery is: load the latest valid checkpoint, replay the WAL suffix, and
// the rebuilt engine is bitwise-equivalent to one that never crashed (see
// DESIGN.md §11 and the fault-injection tests in internal/serve).
//
// Record format (little-endian, CRC32C per record so corruption is localized):
//
//	uint32  payload length
//	payload: int32 src · int32 dst · float64 t · uint32 featLen · featLen×float64
//	uint32  CRC32C(payload)
//
// Segments carry a 16-byte header (magic, format version, sequence number of
// their first record) so replay can seek past whole files, and rotate at
// Config.SegmentBytes. Appends are group-committed: records accumulate in a
// bounded in-memory buffer that is written and fsynced every
// Config.SyncEvery records (and on Sync/rotation/Close), keeping the ingest
// hot path allocation-free and the crash-loss bound explicit — at most the
// unsynced tail, never more than SyncEvery events.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"
)

// Config sizes a log. The zero value of every field picks the default.
type Config struct {
	Dir          string // segment + checkpoint directory (required)
	SyncEvery    int    // records per group commit (default 64; 1 = fsync every append)
	SegmentBytes int64  // rotation threshold (default 64 MiB)
	FS           FS     // file-op layer (default OSFS; tests inject FaultFS)
}

func (c Config) normalize() (Config, error) {
	if c.Dir == "" {
		return c, fmt.Errorf("wal: Config.Dir is required")
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 64
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.FS == nil {
		c.FS = OSFS{}
	}
	return c, nil
}

// Record is one logged ingest event. Feat is a view into the decoder's
// scratch during replay — copy it if it must outlive the callback.
type Record struct {
	Src, Dst int32
	T        float64
	Feat     []float64
}

const (
	segMagic      = 0x4C415754 // "TWAL"
	segVersion    = 1
	segHeaderSize = 16
	recOverhead   = 8        // length prefix + trailing CRC
	maxPayload    = 16 << 20 // sanity bound rejecting absurd lengths in torn tails
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a record cut short by a crash (as opposed to checksum
// corruption); both are repaired identically by truncation.
var ErrTorn = errors.New("wal: torn record")

// Log is an open write-ahead log positioned for appending. It is not safe
// for concurrent use; the serving engine serializes appends under its ingest
// lock. After any append or sync error the log is sticky-failed: the caller
// cannot know how much of the buffered tail reached the disk, so every later
// call returns the same error rather than silently dropping a gap into the
// record sequence.
type Log struct {
	cfg       Config
	seq       uint64 // records appended (durable ones plus the buffered tail)
	syncedSeq uint64 // records known durable

	segIdx   int   // current segment number
	segBytes int64 // bytes committed to the current segment (header included)
	f        File

	buf     []byte // group-commit buffer: encoded records awaiting fsync
	pending int    // records in buf

	syncs    uint64
	segments int
	err      error // sticky failure
}

// Open repairs and opens the log in cfg.Dir: existing segments are verified,
// any torn tail is truncated away (Repair), and a fresh segment is started
// for appends. The returned Stats report how many records survived — the
// caller replays them before appending. Opening an empty or missing
// directory is the fresh-start path.
func Open(cfg Config) (*Log, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	rep, err := Repair(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		cfg:       cfg,
		seq:       rep.Records,
		syncedSeq: rep.Records,
		segIdx:    rep.LastSegment + 1,
		segments:  rep.Segments,
	}
	if err := l.startSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// startSegment creates the next segment file and makes its header durable.
func (l *Log) startSegment() error {
	name := filepath.Join(l.cfg.Dir, segmentName(l.segIdx))
	f, err := l.cfg.FS.Create(name)
	if err != nil {
		return l.fail(fmt.Errorf("wal: create segment: %w", err))
	}
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:], l.seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: segment header: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: segment header sync: %w", err))
	}
	if err := l.cfg.FS.SyncDir(l.cfg.Dir); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: dir sync: %w", err))
	}
	l.f = f
	l.segBytes = segHeaderSize
	l.segments++
	return nil
}

func segmentName(idx int) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// fail records a sticky error.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Append logs one ingest event. The record lands in the group-commit buffer
// and becomes durable at the next sync point (every SyncEvery records, or an
// explicit Sync); until then a crash may lose it — the bounded tail the
// recovery contract documents. The hot path performs no heap allocations
// once the buffer has grown to its steady-state size.
func (l *Log) Append(src, dst int32, t float64, feat []float64) error {
	if l.err != nil {
		return l.err
	}
	payload := 20 + 8*len(feat)
	if payload > maxPayload {
		return fmt.Errorf("wal: record payload %d exceeds %d bytes", payload, maxPayload)
	}
	rec := int64(payload + recOverhead)
	// Rotate first if this record would push the current segment past the
	// cap (never splitting a record across segments).
	if l.segBytes+int64(len(l.buf))+rec > l.cfg.SegmentBytes && l.segBytes+int64(len(l.buf)) > segHeaderSize {
		if err := l.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return l.fail(fmt.Errorf("wal: close segment: %w", err))
		}
		l.segIdx++
		if err := l.startSegment(); err != nil {
			return err
		}
	}
	l.buf = AppendRecord(l.buf, src, dst, t, feat)
	l.pending++
	l.seq++
	if l.pending >= l.cfg.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync flushes the group-commit buffer and fsyncs the segment, making every
// appended record durable. A no-op when nothing is pending.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if l.pending == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		return l.fail(fmt.Errorf("wal: write: %w", err))
	}
	if n != len(l.buf) {
		return l.fail(fmt.Errorf("wal: short write: %d of %d bytes", n, len(l.buf)))
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.segBytes += int64(len(l.buf))
	l.buf = l.buf[:0]
	l.pending = 0
	l.syncedSeq = l.seq
	l.syncs++
	return nil
}

// Seq reports the total records appended to the log across its lifetime
// (event i of the stream is record i).
func (l *Log) Seq() uint64 { return l.seq }

// Err reports the sticky failure, nil while the log is healthy.
func (l *Log) Err() error { return l.err }

// Stats is a point-in-time summary of the log.
type Stats struct {
	Appended uint64 // records appended (buffered tail included)
	Synced   uint64 // records known durable
	Syncs    uint64 // fsync batches performed
	Segments int    // segment files written across the log's lifetime
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{Appended: l.seq, Synced: l.syncedSeq, Syncs: l.syncs, Segments: l.segments}
}

// Close syncs and closes the current segment. The log is unusable after.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		if l.f != nil {
			l.f.Close()
		}
		return err
	}
	err := l.f.Close()
	l.fail(errors.New("wal: log closed"))
	return err
}

// listSegments returns the dir's segment file names in index order.
func listSegments(fsys FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs := names[:0]
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	return segs, nil // ReadDir sorts; zero-padded indices keep lexical == numeric order
}

// segReader decodes one segment sequentially, tolerating short reads from
// the underlying file (it always reads via io.ReadFull). The record decoding
// itself is the shared recordDecoder (tail.go), which network stream
// shipping reuses byte-for-byte.
type segReader struct {
	f        File
	firstSeq uint64
	dec      recordDecoder
}

// openSegment validates the header. A header that cannot be fully read or
// fails validation reports ErrTorn at offset 0 — repair removes the file.
func openSegment(fsys FS, path string) (*segReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, ErrTorn
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("wal: %s: bad magic", filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != segVersion {
		f.Close()
		return nil, fmt.Errorf("wal: %s: unsupported format version %d", filepath.Base(path), v)
	}
	return &segReader{
		f:        f,
		firstSeq: binary.LittleEndian.Uint64(hdr[8:]),
		dec:      recordDecoder{r: f, off: segHeaderSize},
	}, nil
}

// next decodes the next record. io.EOF means a clean end; ErrTorn means the
// file ends mid-record; any other error means checksum or framing corruption.
// The returned Record's Feat is valid until the next call.
func (r *segReader) next() (Record, error) { return r.dec.next() }

// off reports the byte offset of the next undecoded record.
func (r *segReader) off() int64 { return r.dec.off }

func (r *segReader) close() { r.f.Close() }

// Replay streams records [from, end) in sequence order to fn, riding the
// TailFrom iterator (segment headers skip whole files below from). It
// expects a repaired log (Open runs Repair first); corruption mid-replay is
// an error, not a silent stop. A from past the log's end replays nothing and
// is not an error. fn's Record.Feat is only valid during the call.
func Replay(fsys FS, dir string, from uint64, fn func(seq uint64, rec Record) error) (replayed uint64, err error) {
	t, err := TailFrom(fsys, dir, from)
	if err != nil {
		return 0, err
	}
	defer t.Close()
	for {
		seq, rec, err := t.Next()
		if err == io.EOF {
			return replayed, nil
		}
		if err != nil {
			return replayed, fmt.Errorf("wal: replay: %w", err)
		}
		if err := fn(seq, rec); err != nil {
			return replayed, err
		}
		replayed++
	}
}

// VerifyReport describes a scan of the log.
type VerifyReport struct {
	Records     uint64 // valid records across all segments
	Segments    int    // segment files seen
	LastSegment int    // highest segment index seen (-1 when none)
	Torn        bool   // a torn or corrupt tail was found (or repaired)
	TornSegment string // segment holding the bad record
	TornOffset  int64  // byte offset of the first bad record in that segment
	Detail      string // human-readable description of the fault
}

// Verify scans every segment in order and reports the first invalid record
// without modifying anything. A log written by a crashed process typically
// verifies as Torn with a valid prefix; Repair truncates to exactly that
// prefix.
func Verify(fsys FS, dir string) (VerifyReport, error) {
	rep := VerifyReport{LastSegment: -1}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return rep, err
	}
	for _, name := range segs {
		rep.Segments++
		var idx int
		if _, err := fmt.Sscanf(name, "wal-%d.seg", &idx); err == nil && idx > rep.LastSegment {
			rep.LastSegment = idx
		}
		if rep.Torn {
			continue // everything after the first fault is unreachable
		}
		r, err := openSegment(fsys, filepath.Join(dir, name))
		if err != nil {
			rep.Torn = true
			rep.TornSegment = name
			rep.TornOffset = 0
			rep.Detail = err.Error()
			continue
		}
		if r.firstSeq != rep.Records {
			// A gap means records were lost wholesale (manual deletion); the
			// prefix up to the gap is still coherent.
			rep.Torn = true
			rep.TornSegment = name
			rep.TornOffset = 0
			rep.Detail = fmt.Sprintf("segment starts at seq %d, expected %d", r.firstSeq, rep.Records)
			r.close()
			continue
		}
		for {
			start := r.off()
			_, err := r.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rep.Torn = true
				rep.TornSegment = name
				rep.TornOffset = start
				rep.Detail = err.Error()
				break
			}
			rep.Records++
		}
		r.close()
	}
	return rep, nil
}

// Repair makes the log replayable after a crash: it truncates the first
// torn or corrupt record (and removes every later segment, which can hold
// nothing reachable) instead of failing recovery outright. The surviving
// prefix is exactly the records Verify counts valid.
func Repair(fsys FS, dir string) (VerifyReport, error) {
	rep, err := Verify(fsys, dir)
	if err != nil || !rep.Torn {
		return rep, err
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return rep, err
	}
	drop := false
	for _, name := range segs {
		path := filepath.Join(dir, name)
		switch {
		case name == rep.TornSegment && rep.TornOffset > 0:
			if err := fsys.Truncate(path, rep.TornOffset); err != nil {
				return rep, fmt.Errorf("wal: repair truncate %s: %w", name, err)
			}
			drop = true
		case name == rep.TornSegment || drop:
			// Torn at offset 0 (unreadable header) or beyond the fault:
			// nothing in the file is reachable.
			if err := fsys.Remove(path); err != nil {
				return rep, fmt.Errorf("wal: repair remove %s: %w", name, err)
			}
			if name == rep.TornSegment {
				drop = true
			}
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		return rep, fmt.Errorf("wal: repair dir sync: %w", err)
	}
	return rep, nil
}
