package models

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"taser/internal/tensor"
)

// Binary weight-set format (little-endian), the payload checkpoint files
// carry so a recovered engine serves exactly the weight version it crashed
// with (internal/wal, DESIGN.md §11):
//
//	uint32  magic "TWST"
//	uint64  version
//	uint32  tensor count
//	per tensor: uint32 rows · uint32 cols · rows×cols float64 (IEEE bits)
//	uint32  CRC32C over everything above
//
// Encoding float64 bit patterns verbatim is what makes the crash-equivalence
// guarantee bitwise rather than approximate: a decoded set scores requests
// identically to the set that was captured.
const weightsMagic = 0x54535754 // "TWST"

var weightsCRCTable = crc32.MakeTable(crc32.Castagnoli)

// AppendBinary appends the set's checksummed binary encoding to buf and
// returns the extended slice.
func (w *WeightSet) AppendBinary(buf []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, weightsMagic)
	buf = binary.LittleEndian.AppendUint64(buf, w.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.Params)))
	for _, p := range w.Params {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Cols))
		for _, v := range p.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], weightsCRCTable))
}

// DecodeWeightSet parses exactly one encoded set from data, verifying the
// trailing checksum before trusting any field; a corrupted payload is
// rejected, never partially loaded. Returns the set and the bytes consumed.
func DecodeWeightSet(data []byte) (*WeightSet, int, error) {
	const headerLen = 16 // magic + version + count
	if len(data) < headerLen+4 {
		return nil, 0, fmt.Errorf("models: weight payload truncated (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != weightsMagic {
		return nil, 0, fmt.Errorf("models: weight payload has bad magic")
	}
	count := int(binary.LittleEndian.Uint32(data[12:]))
	// First pass: walk the tensor headers to find the payload extent, then
	// checksum before decoding values.
	off := headerLen
	for i := 0; i < count; i++ {
		if off+8 > len(data) {
			return nil, 0, fmt.Errorf("models: weight payload truncated at tensor %d header", i)
		}
		rows := int64(binary.LittleEndian.Uint32(data[off:]))
		cols := int64(binary.LittleEndian.Uint32(data[off+4:]))
		// Bound each dimension before multiplying: corrupted dimensions must
		// not overflow the product (even int64 can wrap for two uint32s) and
		// slip a negative offset past the bounds check.
		max := int64(len(data)-off) / 8
		if rows > max || cols > max || rows*cols > max {
			return nil, 0, fmt.Errorf("models: weight payload tensor %d shape %dx%d exceeds payload", i, rows, cols)
		}
		off += 8 + 8*int(rows*cols)
	}
	if off+4 > len(data) {
		return nil, 0, fmt.Errorf("models: weight payload truncated before checksum")
	}
	want := binary.LittleEndian.Uint32(data[off:])
	if crc32.Checksum(data[:off], weightsCRCTable) != want {
		return nil, 0, fmt.Errorf("models: weight payload checksum mismatch")
	}
	w := &WeightSet{
		Version: binary.LittleEndian.Uint64(data[4:]),
		Params:  make([]*tensor.Matrix, 0, count),
	}
	p := headerLen
	for i := 0; i < count; i++ {
		rows := int(binary.LittleEndian.Uint32(data[p:]))
		cols := int(binary.LittleEndian.Uint32(data[p+4:]))
		p += 8
		m := tensor.New(rows, cols)
		for j := range m.Data {
			m.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
			p += 8
		}
		w.Params = append(w.Params, m)
	}
	return w, off + 4, nil
}
