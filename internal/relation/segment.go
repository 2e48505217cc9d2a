package relation

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"trapp/internal/interval"
)

// This file is the durable codec under the write-ahead log and snapshots
// (see wal.go): length-prefixed, checksummed records carrying the full
// effect of one store mutation, and the snapshot framing built from the
// same records. Records are self-contained and idempotent — an insert
// carries the whole tuple, a refresh carries the exact values, a push
// carries the materialized intervals — so replaying any record over a
// store that already reflects it converges, which is what lets a
// snapshot taken concurrently with appends (per-shard read cuts at
// slightly different instants) recover exactly: the new-generation log
// replays over the snapshot and every divergence is overwritten by the
// record's full effect.
//
// Frame layout (all little-endian):
//
//	u32 payload length | u32 CRC32-IEEE(payload) | payload
//
// The payload starts with a one-byte record kind. Replay walks frames
// until the file ends cleanly or a frame fails the length or checksum
// test; everything from the first bad frame on is a torn tail — the
// prefix before it is exactly the durable state.

// Record kinds. The numbering is part of the on-disk format.
const (
	recInsert   = byte(1) // full tuple: upsert on replay
	recDelete   = byte(2) // key
	recRefresh  = byte(3) // key + exact values (bounded columns point-collapse)
	recPush     = byte(4) // key + materialized bounded-column intervals
	recBoundSet = byte(5) // key + column + one interval
	recSnapEnd  = byte(6) // snapshot trailer: tuple count
)

// maxRecordLen bounds a frame's claimed payload length; anything larger
// is treated as a torn/corrupt frame rather than an allocation request.
const maxRecordLen = 1 << 24

var crcTable = crc32.MakeTable(crc32.IEEE)

func appendWU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendWU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendWU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendWF64(dst []byte, v float64) []byte {
	return appendWU64(dst, math.Float64bits(v))
}
func appendWStr(dst []byte, s string) []byte {
	dst = appendWU16(dst, uint16(len(s)))
	return append(dst, s...)
}
func appendWIv(dst []byte, iv interval.Interval) []byte {
	dst = appendWF64(dst, iv.Lo)
	return appendWF64(dst, iv.Hi)
}

// appendFrame wraps a payload (already appended after the 8-byte header
// slot) with its length prefix and checksum. Callers reserve the header
// with appendFrameHeader-style usage: encode into scratch, then frame.
func appendFrame(dst, payload []byte) []byte {
	dst = appendWU32(dst, uint32(len(payload)))
	dst = appendWU32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// segReader walks a byte slice of frames or payload fields.
type segReader struct {
	b   []byte
	off int
}

func (r *segReader) remaining() int { return len(r.b) - r.off }

func (r *segReader) u8(what string) (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("relation: truncated %s", what)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *segReader) u16(what string) (uint16, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("relation: truncated %s", what)
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *segReader) u64(what string) (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("relation: truncated %s", what)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *segReader) f64(what string) (float64, error) {
	v, err := r.u64(what)
	return math.Float64frombits(v), err
}

func (r *segReader) str(what string) (string, error) {
	n, err := r.u16(what)
	if err != nil {
		return "", err
	}
	if r.remaining() < int(n) {
		return "", fmt.Errorf("relation: truncated %s", what)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *segReader) iv(what string) (interval.Interval, error) {
	lo, err := r.f64(what)
	if err != nil {
		return interval.Interval{}, err
	}
	hi, err := r.f64(what)
	if err != nil {
		return interval.Interval{}, err
	}
	return interval.Interval{Lo: lo, Hi: hi}, nil
}

// nextFrame extracts the next frame's payload. ok=false means the stream
// ended — cleanly (torn=false, zero remaining bytes) or at a torn/corrupt
// frame (torn=true; the remaining bytes are the tail that must not be
// trusted).
func (r *segReader) nextFrame() (payload []byte, ok, torn bool) {
	if r.remaining() == 0 {
		return nil, false, false
	}
	if r.remaining() < 8 {
		return nil, false, true
	}
	n := binary.LittleEndian.Uint32(r.b[r.off:])
	sum := binary.LittleEndian.Uint32(r.b[r.off+4:])
	if n > maxRecordLen || r.remaining()-8 < int(n) {
		return nil, false, true
	}
	payload = r.b[r.off+8 : r.off+8+int(n)]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, false, true
	}
	r.off += 8 + int(n)
	return payload, true, false
}

// --- record payload encoding -----------------------------------------

func encodeInsert(dst []byte, tu *Tuple) []byte {
	dst = append(dst, recInsert)
	dst = appendWU64(dst, uint64(tu.Key))
	dst = appendWF64(dst, tu.Cost)
	dst = appendWStr(dst, tu.SourceID)
	dst = appendWU16(dst, uint16(len(tu.Bounds)))
	for _, iv := range tu.Bounds {
		dst = appendWIv(dst, iv)
	}
	return dst
}

func encodeDelete(dst []byte, key int64) []byte {
	dst = append(dst, recDelete)
	return appendWU64(dst, uint64(key))
}

func encodeRefresh(dst []byte, key int64, exact []float64) []byte {
	dst = append(dst, recRefresh)
	dst = appendWU64(dst, uint64(key))
	dst = appendWU16(dst, uint16(len(exact)))
	for _, v := range exact {
		dst = appendWF64(dst, v)
	}
	return dst
}

func encodePush(dst []byte, key int64, ivs []interval.Interval) []byte {
	dst = append(dst, recPush)
	dst = appendWU64(dst, uint64(key))
	dst = appendWU16(dst, uint16(len(ivs)))
	for _, iv := range ivs {
		dst = appendWIv(dst, iv)
	}
	return dst
}

func encodeBoundSet(dst []byte, key int64, col int, iv interval.Interval) []byte {
	dst = append(dst, recBoundSet)
	dst = appendWU64(dst, uint64(key))
	dst = appendWU16(dst, uint16(col))
	return appendWIv(dst, iv)
}

// applyRecord decodes one record payload and applies its full effect to
// the store. Decode and apply failures are corruption (a CRC-valid frame
// whose contents do not fit the schema, or an operation on state the
// ordered prefix cannot have produced) and fail loudly; replay never
// guesses.
func applyRecord(st *Store, payload []byte) error {
	r := &segReader{b: payload}
	kind, err := r.u8("record kind")
	if err != nil {
		return err
	}
	switch kind {
	case recInsert:
		tu, err := decodeInsert(r)
		if err != nil {
			return err
		}
		st.Delete(tu.Key) // upsert: replay over a snapshot that already has it
		if err := st.Insert(tu); err != nil {
			return fmt.Errorf("relation: replay insert key %d: %w", tu.Key, err)
		}
	case recDelete:
		key, err := r.u64("delete key")
		if err != nil {
			return err
		}
		st.Delete(int64(key)) // idempotent: absence is fine
	case recRefresh:
		key, err := r.u64("refresh key")
		if err != nil {
			return err
		}
		n, err := r.u16("refresh value count")
		if err != nil {
			return err
		}
		vals := make([]float64, n)
		for i := range vals {
			if vals[i], err = r.f64("refresh value"); err != nil {
				return err
			}
		}
		ok, rerr := st.Refresh(int64(key), vals)
		if rerr != nil {
			return fmt.Errorf("relation: replay refresh key %d: %w", int64(key), rerr)
		}
		if !ok {
			return fmt.Errorf("relation: replay refresh of absent key %d", int64(key))
		}
	case recPush:
		key, err := r.u64("push key")
		if err != nil {
			return err
		}
		n, err := r.u16("push interval count")
		if err != nil {
			return err
		}
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			if ivs[i], err = r.iv("push interval"); err != nil {
				return err
			}
		}
		var serr error
		ok := st.Update(int64(key), func(t *Table, i int) {
			bcols := t.Schema().BoundedColumns()
			if len(bcols) != len(ivs) {
				serr = fmt.Errorf("relation: replay push has %d intervals, schema has %d bounded columns",
					len(ivs), len(bcols))
				return
			}
			for j, col := range bcols {
				if serr = t.SetBound(i, col, ivs[j]); serr != nil {
					return
				}
			}
		})
		if serr != nil {
			return serr
		}
		if !ok {
			return fmt.Errorf("relation: replay push to absent key %d", int64(key))
		}
	case recBoundSet:
		key, err := r.u64("boundset key")
		if err != nil {
			return err
		}
		col, err := r.u16("boundset column")
		if err != nil {
			return err
		}
		iv, err := r.iv("boundset interval")
		if err != nil {
			return err
		}
		if int(col) >= st.Schema().NumColumns() {
			return fmt.Errorf("relation: replay boundset column %d out of range", col)
		}
		var serr error
		ok := st.Update(int64(key), func(t *Table, i int) {
			serr = t.SetBound(i, int(col), iv)
		})
		if serr != nil {
			return serr
		}
		if !ok {
			return fmt.Errorf("relation: replay boundset to absent key %d", int64(key))
		}
	default:
		return fmt.Errorf("relation: unknown record kind 0x%02x", kind)
	}
	return nil
}

func decodeInsert(r *segReader) (Tuple, error) {
	var tu Tuple
	key, err := r.u64("insert key")
	if err != nil {
		return tu, err
	}
	tu.Key = int64(key)
	if tu.Cost, err = r.f64("insert cost"); err != nil {
		return tu, err
	}
	if tu.SourceID, err = r.str("insert source id"); err != nil {
		return tu, err
	}
	n, err := r.u16("insert bound count")
	if err != nil {
		return tu, err
	}
	tu.Bounds = make([]interval.Interval, n)
	for i := range tu.Bounds {
		if tu.Bounds[i], err = r.iv("insert bound"); err != nil {
			return tu, err
		}
	}
	return tu, nil
}

// --- schema codec (META file and snapshot headers) --------------------

func appendSchema(dst []byte, s *Schema) []byte {
	dst = appendWU16(dst, uint16(s.NumColumns()))
	for i := 0; i < s.NumColumns(); i++ {
		c := s.Column(i)
		dst = appendWStr(dst, c.Name)
		dst = append(dst, byte(c.Kind))
	}
	return dst
}

func decodeSchema(r *segReader) (*Schema, error) {
	n, err := r.u16("schema column count")
	if err != nil {
		return nil, err
	}
	cols := make([]Column, n)
	for i := range cols {
		if cols[i].Name, err = r.str("schema column name"); err != nil {
			return nil, err
		}
		k, err := r.u8("schema column kind")
		if err != nil {
			return nil, err
		}
		cols[i].Kind = Kind(k)
	}
	return NewSchema(cols...), nil
}

// schemaEqual reports structural equality of two schemas.
func schemaEqual(a, b *Schema) bool {
	if a.NumColumns() != b.NumColumns() {
		return false
	}
	for i := 0; i < a.NumColumns(); i++ {
		if a.Column(i) != b.Column(i) {
			return false
		}
	}
	return true
}

// ValueDigest hashes the durable identity of every tuple — key, source,
// refresh cost, and the exact columns' values — over the store's natural
// scan order, which is canonical.
// Bounded columns are deliberately excluded: their intervals are
// re-widened on recovery (DESIGN.md §15), so two stores holding the same
// mastered data digest equal no matter what bound state each carries.
// The crash-recovery e2e compares this across restarts to prove values
// survive bit-identically.
func (s *Store) ValueDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	exact := make([]int, 0, s.schema.NumColumns())
	for i := 0; i < s.schema.NumColumns(); i++ {
		if s.schema.Column(i).Kind == Exact {
			exact = append(exact, i)
		}
	}
	for i := range s.shards {
		s.ViewShard(i, func(t *Table) {
			for j := 0; j < t.Len(); j++ {
				tu := t.At(j)
				mix(uint64(tu.Key))
				for k := 0; k < len(tu.SourceID); k++ {
					h ^= uint64(tu.SourceID[k])
					h *= prime64
				}
				mix(math.Float64bits(tu.Cost))
				for _, col := range exact {
					mix(math.Float64bits(tu.Bounds[col].Lo))
				}
			}
		})
	}
	return h
}
