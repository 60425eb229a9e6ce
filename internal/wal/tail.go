package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
)

// This file is the log's streaming surface: the record framing exported as a
// byte codec (AppendRecord / StreamReader) and a pull iterator over a log
// directory (TailFrom). internal/replica ships records over HTTP with exactly
// the on-disk framing — a follower decodes the wire with the same CRC32C
// checks recovery uses on the disk, so a torn or corrupted transport chunk is
// caught by the same machinery as a torn segment tail.

// AppendRecord appends one record to dst using the log's framing
// (length prefix · payload · CRC32C) and returns the extended slice. The
// bytes are identical to what Log.Append commits to a segment, so a stream
// of AppendRecord frames is replayable by StreamReader and byte-comparable
// to the log itself.
func AppendRecord(dst []byte, src, dstNode int32, t float64, feat []float64) []byte {
	payload := 20 + 8*len(feat)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dstNode))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(feat)))
	for _, v := range feat {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// recordDecoder decodes a sequence of framed records from an io.Reader,
// tolerating short reads (it always reads via io.ReadFull). It is the shared
// core of segment replay and network stream decoding.
type recordDecoder struct {
	r       io.Reader
	scratch []byte
	feat    []float64
	off     int64 // bytes consumed so far
}

// next decodes the next record. io.EOF means a clean end on a frame
// boundary; ErrTorn means the stream ends mid-record; any other error means
// checksum or framing corruption. The returned Record's Feat views d.feat
// and is valid until the next call.
func (d *recordDecoder) next() (Record, error) {
	var lenBuf [4]byte
	n, err := io.ReadFull(d.r, lenBuf[:])
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil || n < 4 {
		return Record{}, ErrTorn
	}
	payload := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if payload < 20 || payload > maxPayload || (payload-20)%8 != 0 {
		// An absurd length is indistinguishable from garbage written over the
		// tail; treat it as torn so repair truncates here.
		return Record{}, ErrTorn
	}
	need := payload + 4
	if cap(d.scratch) < need {
		d.scratch = make([]byte, need)
	}
	body := d.scratch[:need]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return Record{}, ErrTorn
	}
	want := binary.LittleEndian.Uint32(body[payload:])
	if crc32.Checksum(body[:payload], crcTable) != want {
		return Record{}, fmt.Errorf("wal: record checksum mismatch at offset %d", d.off)
	}
	rec := Record{
		Src: int32(binary.LittleEndian.Uint32(body[0:])),
		Dst: int32(binary.LittleEndian.Uint32(body[4:])),
		T:   math.Float64frombits(binary.LittleEndian.Uint64(body[8:])),
	}
	featLen := int(binary.LittleEndian.Uint32(body[16:]))
	if featLen != (payload-20)/8 {
		return Record{}, fmt.Errorf("wal: record feature length %d disagrees with payload at offset %d", featLen, d.off)
	}
	if cap(d.feat) < featLen {
		d.feat = make([]float64, featLen)
	}
	rec.Feat = d.feat[:featLen]
	for i := range rec.Feat {
		rec.Feat[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[20+8*i:]))
	}
	d.off += int64(need + 4)
	return rec, nil
}

// StreamReader decodes AppendRecord-framed records from an arbitrary byte
// stream — the follower side of log shipping. Next returns io.EOF when the
// stream ends exactly on a frame boundary, ErrTorn when it ends mid-record
// (a truncated transport chunk), and a checksum error on corruption; in the
// latter two cases every record already returned is still valid, so a caller
// applying records one at a time keeps a consistent prefix and simply
// re-requests the rest.
type StreamReader struct {
	dec recordDecoder
}

// NewStreamReader wraps r for record decoding.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{dec: recordDecoder{r: r}}
}

// Next returns the next record. The Record's Feat is only valid until the
// following call — copy it if it must outlive the iteration step.
func (s *StreamReader) Next() (Record, error) { return s.dec.next() }

// Tail iterates a log directory's records in sequence order starting at a
// given sequence number, using segment headers to skip whole files below it.
// It expects a repaired log (Open runs Repair first). Tailing a live log is
// safe as long as the caller stops at the log's synced sequence — the bytes
// of every synced record are fully on disk before the synced counter
// advances, while the group-commit tail past it may be mid-write.
type Tail struct {
	fsys FS
	dir  string
	from uint64
	segs []string
	idx  int
	r    *segReader
	name string // base name of the open segment, for error context
	seq  uint64 // sequence number of the next record r will yield
}

// TailFrom opens a tail over dir positioned at sequence from. The segment
// list is captured once: records synced before the call are all reachable;
// a tail that should observe later appends is reopened (the iterator is
// cheap — one open per segment actually read).
func TailFrom(fsys FS, dir string, from uint64) (*Tail, error) {
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	return &Tail{fsys: fsys, dir: dir, from: from, segs: segs}, nil
}

// Next returns the next record at or past the tail's start sequence. io.EOF
// means the log end was reached cleanly; any other error is corruption (the
// caller decides whether that is fatal, as in Replay, or a retry, as in a
// live follower). The Record's Feat is only valid until the following call.
func (t *Tail) Next() (uint64, Record, error) {
	for {
		for t.r == nil {
			if t.idx >= len(t.segs) {
				return 0, Record{}, io.EOF
			}
			// Peek the next segment's first sequence: if it starts at or
			// below from, nothing in the current one is needed.
			if t.idx+1 < len(t.segs) {
				if nr, err := openSegment(t.fsys, filepath.Join(t.dir, t.segs[t.idx+1])); err == nil {
					skip := nr.firstSeq <= t.from
					nr.close()
					if skip {
						t.idx++
						continue
					}
				}
			}
			name := t.segs[t.idx]
			r, err := openSegment(t.fsys, filepath.Join(t.dir, name))
			if err != nil {
				return 0, Record{}, fmt.Errorf("wal: tail %s: %w", name, err)
			}
			t.r, t.name, t.seq = r, name, r.firstSeq
		}
		rec, err := t.r.next()
		if err == io.EOF {
			t.r.close()
			t.r = nil
			t.idx++
			continue
		}
		if err != nil {
			return 0, Record{}, fmt.Errorf("wal: tail %s: %w", t.name, err)
		}
		seq := t.seq
		t.seq++
		if seq < t.from {
			continue
		}
		return seq, rec, nil
	}
}

// Close releases the open segment, if any. The tail is reusable only up to
// Close.
func (t *Tail) Close() {
	if t.r != nil {
		t.r.close()
		t.r = nil
	}
	t.idx = len(t.segs)
}
