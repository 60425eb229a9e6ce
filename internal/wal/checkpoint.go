package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"taser/internal/models"
	"taser/internal/tgraph"
)

// Checkpoint is one durable cut of the serving state: the event prefix it
// covers (with edge-feature rows), the ingest watermark, and the weight set
// serving that prefix. Recovery bootstraps an engine from the newest valid
// checkpoint and replays only the WAL records past Events — the WAL suffix —
// so recovery cost is bounded by the checkpoint cadence, not the stream
// length. A checkpoint with nil Weights restores the engine's configured
// (pretrained) parameters.
//
// File format: magic + format version, then four checksummed sections
// (manifest, events, features, weights), each framed as
// [uint64 length][payload][uint32 CRC32C]. Any truncation or bit flip fails
// a section's checksum and the whole file is rejected — recovery then falls
// back to the previous checkpoint (two are retained) or to pure WAL replay.
type Checkpoint struct {
	Events       []tgraph.Event
	Feats        []float64 // row i of the EdgeDim-wide feature matrix is event i's
	EdgeDim      int
	Watermark    float64
	HasWatermark bool
	Weights      *models.WeightSet // nil = no weights published at capture time
}

const (
	ckptMagic   = 0x504B4354 // "TCKP"
	ckptVersion = 1
)

func checkpointName(events int, weightVersion uint64) string {
	return fmt.Sprintf("ckpt-%016d-%08d.ck", events, weightVersion)
}

// appendSection frames payload (already appended at buf[start:]) in place:
// the caller reserves the length slot by calling beginSection first.
func beginSection(buf []byte) ([]byte, int) {
	buf = binary.LittleEndian.AppendUint64(buf, 0) // patched by endSection
	return buf, len(buf)
}

func endSection(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint64(buf[start-8:], uint64(len(buf)-start))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// encode marshals the checkpoint.
func (c *Checkpoint) encode() ([]byte, error) {
	if len(c.Feats) != len(c.Events)*c.EdgeDim {
		return nil, fmt.Errorf("wal: checkpoint has %d feature floats for %d events × %d dims",
			len(c.Feats), len(c.Events), c.EdgeDim)
	}
	n := len(c.Events)
	buf := make([]byte, 0, 8+3*12+16*n+8*len(c.Feats)+64)
	buf = binary.LittleEndian.AppendUint32(buf, ckptMagic)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)

	// Manifest.
	buf, start := beginSection(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Watermark))
	if c.HasWatermark {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.EdgeDim))
	var wv uint64
	if c.Weights != nil {
		wv = c.Weights.Version
	}
	buf = binary.LittleEndian.AppendUint64(buf, wv)
	buf = endSection(buf, start)

	// Events.
	buf, start = beginSection(buf)
	for _, ev := range c.Events {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Time))
	}
	buf = endSection(buf, start)

	// Features.
	buf, start = beginSection(buf)
	for _, v := range c.Feats {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = endSection(buf, start)

	// Weights (present iff the manifest's weight version is non-zero).
	if c.Weights != nil {
		buf, start = beginSection(buf)
		buf = c.Weights.AppendBinary(buf)
		buf = endSection(buf, start)
	}
	return buf, nil
}

// readSection verifies and returns the next section's payload.
func readSection(data []byte, off int) (payload []byte, next int, err error) {
	if off+8 > len(data) {
		return nil, 0, fmt.Errorf("wal: checkpoint truncated at section header")
	}
	n := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if uint64(len(data)-off) < n+4 {
		return nil, 0, fmt.Errorf("wal: checkpoint truncated inside section")
	}
	payload = data[off : off+int(n)]
	off += int(n)
	want := binary.LittleEndian.Uint32(data[off:])
	if crc32.Checksum(payload, crcTable) != want {
		return nil, 0, fmt.Errorf("wal: checkpoint section checksum mismatch")
	}
	return payload, off + 4, nil
}

// DecodeCheckpoint parses and validates a checkpoint file's bytes — local
// recovery reads files through it, and so does the follower side of
// checkpoint shipping (internal/replica): the leader sends the newest
// checkpoint file verbatim and the receiver validates every section checksum
// before trusting any of it.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 8 || binary.LittleEndian.Uint32(data) != ckptMagic {
		return nil, fmt.Errorf("wal: not a checkpoint file")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != ckptVersion {
		return nil, fmt.Errorf("wal: unsupported checkpoint version %d", v)
	}
	man, off, err := readSection(data, 8)
	if err != nil {
		return nil, err
	}
	if len(man) != 29 {
		return nil, fmt.Errorf("wal: checkpoint manifest is %d bytes, want 29", len(man))
	}
	c := &Checkpoint{
		Watermark:    math.Float64frombits(binary.LittleEndian.Uint64(man[8:])),
		HasWatermark: man[16] == 1,
		EdgeDim:      int(binary.LittleEndian.Uint32(man[17:])),
	}
	n := int(binary.LittleEndian.Uint64(man[0:]))
	wv := binary.LittleEndian.Uint64(man[21:])

	evs, off, err := readSection(data, off)
	if err != nil {
		return nil, err
	}
	if len(evs) != 16*n {
		return nil, fmt.Errorf("wal: checkpoint event section is %d bytes for %d events", len(evs), n)
	}
	c.Events = make([]tgraph.Event, n)
	for i := range c.Events {
		c.Events[i] = tgraph.Event{
			Src:  int32(binary.LittleEndian.Uint32(evs[16*i:])),
			Dst:  int32(binary.LittleEndian.Uint32(evs[16*i+4:])),
			Time: math.Float64frombits(binary.LittleEndian.Uint64(evs[16*i+8:])),
		}
	}

	feats, off, err := readSection(data, off)
	if err != nil {
		return nil, err
	}
	if len(feats) != 8*n*c.EdgeDim {
		return nil, fmt.Errorf("wal: checkpoint feature section is %d bytes for %d×%d", len(feats), n, c.EdgeDim)
	}
	c.Feats = make([]float64, n*c.EdgeDim)
	for i := range c.Feats {
		c.Feats[i] = math.Float64frombits(binary.LittleEndian.Uint64(feats[8*i:]))
	}

	if wv != 0 {
		wsec, _, err := readSection(data, off)
		if err != nil {
			return nil, err
		}
		w, _, err := models.DecodeWeightSet(wsec)
		if err != nil {
			return nil, err
		}
		if w.Version != wv {
			return nil, fmt.Errorf("wal: checkpoint weight version %d disagrees with manifest %d", w.Version, wv)
		}
		c.Weights = w
	}
	return c, nil
}

// WriteCheckpoint durably publishes ck into dir: the encoding is written to
// a temporary file, fsynced, atomically renamed into place, and the
// directory fsynced — a crash at any point leaves either the old checkpoint
// set or the new one, never a half-written file that recovery could trust.
// The two newest checkpoints are retained (the newest could be torn by a
// crash mid-write; the one before it is the fallback) and older ones
// removed.
func WriteCheckpoint(fsys FS, dir string, ck *Checkpoint) error {
	data, err := ck.encode()
	if err != nil {
		return err
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	final := checkpointName(len(ck.Events), manifestWeightVersion(ck))
	tmp := final + ".tmp"
	f, err := fsys.Create(filepath.Join(dir, tmp))
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := fsys.Rename(filepath.Join(dir, tmp), filepath.Join(dir, final)); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: checkpoint dir sync: %w", err)
	}
	// Prune: keep the two newest, and sweep any stale .tmp leftovers.
	names, err := listCheckpoints(fsys, dir)
	if err != nil {
		return nil // the checkpoint itself is durable; pruning is advisory
	}
	for i, name := range names {
		if i >= 2 {
			_ = fsys.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

func manifestWeightVersion(ck *Checkpoint) uint64 {
	if ck.Weights == nil {
		return 0
	}
	return ck.Weights.Version
}

// listCheckpoints returns checkpoint file names, newest first.
func listCheckpoints(fsys FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	cks := names[:0]
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ck") {
			cks = append(cks, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(cks))) // zero-padded: lexical == (events, weight version)
	return cks, nil
}

// newestCheckpoint is the one scan for the newest checkpoint in dir that
// validates, returning its raw bytes and its decoded form. Torn or corrupt
// files are skipped (a crash mid-WriteCheckpoint leaves at worst an
// ignorable .tmp); both results are nil when the directory holds no usable
// checkpoint.
func newestCheckpoint(fsys FS, dir string) ([]byte, *Checkpoint, error) {
	names, err := listCheckpoints(fsys, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, name := range names {
		f, err := fsys.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		raw, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			continue
		}
		if ck, err := DecodeCheckpoint(raw); err == nil {
			return raw, ck, nil
		}
	}
	return nil, nil, nil
}

// NewestCheckpointBytes returns the raw bytes of the newest checkpoint in
// dir that validates, for shipping to a catching-up follower (which
// re-validates with DecodeCheckpoint). events is the event count the
// checkpoint covers. Returns (nil, 0, nil) when the directory holds no
// usable checkpoint.
func NewestCheckpointBytes(fsys FS, dir string) (data []byte, events int, err error) {
	data, ck, err := newestCheckpoint(fsys, dir)
	if ck == nil {
		return nil, 0, err
	}
	return data, len(ck.Events), nil
}

// LatestCheckpoint loads the newest checkpoint in dir that validates.
// Returns (nil, nil) when the directory holds no usable checkpoint —
// recovery then replays the WAL from the beginning.
func LatestCheckpoint(fsys FS, dir string) (*Checkpoint, error) {
	_, ck, err := newestCheckpoint(fsys, dir)
	return ck, err
}
