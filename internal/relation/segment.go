package relation

import (
	"fmt"
	"hash/crc32"
	"math"

	"trapp/internal/codec"
	"trapp/internal/interval"
)

// This file is the durable codec under the write-ahead log and snapshots
// (see wal.go), written on internal/codec: length-prefixed, checksummed
// records carrying the full effect of one store mutation, and the
// snapshot framing built from the same records. Records are
// self-contained and idempotent — an insert carries the whole tuple, a
// refresh carries the exact values, a push carries the materialized
// intervals — so replaying any record over a store that already reflects
// it converges, which is what lets a snapshot taken concurrently with
// appends (per-shard read cuts at slightly different instants) recover
// exactly: the new-generation log replays over the snapshot and every
// divergence is overwritten by the record's full effect.
//
// Frame layout (little-endian, the codec's one byte order):
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
// is treated as a torn/corrupt frame.
const maxRecordLen = 1 << 24

var crcTable = crc32.MakeTable(crc32.IEEE)

// appendFrame wraps a payload with its length prefix and checksum.
func appendFrame(dst, payload []byte) []byte {
	dst = codec.AppendU32(dst, uint32(len(payload)))
	dst = codec.AppendU32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// nextFrame returns the payload of the frame at b[off:] and the offset
// after it. ok=false ends the stream: cleanly when off == len(b),
// otherwise at a torn or corrupt frame whose bytes from off on must not
// be trusted.
func nextFrame(b []byte, off int) (payload []byte, next int, ok bool) {
	r := codec.NewReader(b[off:])
	n := r.U32()
	sum := r.U32()
	payload = r.Bytes(int(n))
	if r.Err() != nil || n > maxRecordLen || crc32.Checksum(payload, crcTable) != sum {
		return nil, off, false
	}
	return payload, off + 8 + int(n), true
}

// --- record payload encoding -----------------------------------------

func encodeInsert(dst []byte, tu *Tuple) []byte {
	dst = append(dst, recInsert)
	dst = codec.AppendU64(dst, uint64(tu.Key))
	dst = codec.AppendF64(dst, tu.Cost)
	dst = codec.AppendStr16(dst, tu.SourceID)
	return appendIntervals(dst, tu.Bounds)
}

func encodeDelete(dst []byte, key int64) []byte {
	dst = append(dst, recDelete)
	return codec.AppendU64(dst, uint64(key))
}

func encodeRefresh(dst []byte, key int64, exact []float64) []byte {
	dst = append(dst, recRefresh)
	dst = codec.AppendU64(dst, uint64(key))
	dst = codec.AppendU16(dst, uint16(len(exact)))
	for _, v := range exact {
		dst = codec.AppendF64(dst, v)
	}
	return dst
}

func encodePush(dst []byte, key int64, ivs []interval.Interval) []byte {
	dst = append(dst, recPush)
	dst = codec.AppendU64(dst, uint64(key))
	return appendIntervals(dst, ivs)
}

func encodeBoundSet(dst []byte, key int64, col int, iv interval.Interval) []byte {
	dst = append(dst, recBoundSet)
	dst = codec.AppendU64(dst, uint64(key))
	dst = codec.AppendU16(dst, uint16(col))
	return codec.AppendInterval(dst, iv)
}

func appendIntervals(dst []byte, ivs []interval.Interval) []byte {
	dst = codec.AppendU16(dst, uint16(len(ivs)))
	for _, iv := range ivs {
		dst = codec.AppendInterval(dst, iv)
	}
	return dst
}

func readIntervals(r *codec.Reader) []interval.Interval {
	ivs := make([]interval.Interval, r.U16())
	for i := range ivs {
		ivs[i] = r.Interval()
	}
	return ivs
}

// applyRecord decodes one record payload and applies its full effect to
// the store. Decode and apply failures are corruption (a CRC-valid frame
// whose contents do not fit the schema, or an operation on state the
// ordered prefix cannot have produced) and fail loudly; replay never
// guesses.
func applyRecord(st *Store, payload []byte) error {
	r := codec.NewReader(payload)
	kind := r.U8()
	var tu Tuple       // an insert's tuple; otherwise Key, and Bounds for a push or boundset
	var vals []float64 // a refresh's exact values
	col := 0           // a boundset's column
	switch kind {
	case recInsert:
		tu = decodeInsert(r)
	case recDelete:
		tu.Key = int64(r.U64())
	case recRefresh:
		tu.Key = int64(r.U64())
		vals = make([]float64, r.U16())
		for i := range vals {
			vals[i] = r.F64()
		}
	case recPush:
		tu.Key = int64(r.U64())
		tu.Bounds = readIntervals(r)
	case recBoundSet:
		tu.Key = int64(r.U64())
		col = int(r.U16())
		tu.Bounds = []interval.Interval{r.Interval()}
	default:
		r.Failf("unknown record kind 0x%02x", kind)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("relation: %w", err)
	}

	key := tu.Key
	switch kind {
	case recInsert:
		if err := st.upsert(tu); err != nil {
			return fmt.Errorf("relation: replay insert key %d: %w", key, err)
		}
	case recDelete:
		st.Delete(key) // idempotent: absence is fine
	case recRefresh:
		ok, err := st.Refresh(key, vals)
		if err != nil {
			return fmt.Errorf("relation: replay refresh key %d: %w", key, err)
		}
		if !ok {
			return fmt.Errorf("relation: replay refresh of absent key %d", key)
		}
	case recPush, recBoundSet:
		cols := []int{col}
		if kind == recPush {
			cols = st.Schema().BoundedColumns()
		}
		if len(cols) != len(tu.Bounds) || col >= st.Schema().NumColumns() {
			return fmt.Errorf("relation: replay record kind %d has %d intervals for column(s) %v of a %d-column schema",
				kind, len(tu.Bounds), cols, st.Schema().NumColumns())
		}
		var serr error
		ok := st.Update(key, func(t *Table, i int) {
			for j, c := range cols {
				if serr = t.SetBound(i, c, tu.Bounds[j]); serr != nil {
					return
				}
			}
		})
		if serr != nil {
			return serr
		}
		if !ok {
			return fmt.Errorf("relation: replay record kind %d to absent key %d", kind, key)
		}
	}
	return nil
}

func decodeInsert(r *codec.Reader) Tuple {
	tu := Tuple{Key: int64(r.U64()), Cost: r.F64(), SourceID: r.Str16()}
	tu.Bounds = readIntervals(r)
	return tu
}

// --- schema codec (META file) -----------------------------------------

func appendSchema(dst []byte, s *Schema) []byte {
	dst = codec.AppendU16(dst, uint16(s.NumColumns()))
	for i := 0; i < s.NumColumns(); i++ {
		c := s.Column(i)
		dst = codec.AppendStr16(dst, c.Name)
		dst = append(dst, byte(c.Kind))
	}
	return dst
}

// decodeSchema reads a schema, rejecting what NewSchema would refuse:
// an unknown column kind, an empty or a duplicate column name.
func decodeSchema(r *codec.Reader) *Schema {
	cols := make([]Column, r.U16())
	seen := make(map[string]bool, len(cols))
	for i := range cols {
		c := &cols[i]
		c.Name = r.Str16()
		c.Kind = Kind(r.Enum(byte(Bounded)))
		if r.Err() == nil && (c.Name == "" || seen[c.Name]) {
			r.Failf("column name %q empty or repeated", c.Name)
		}
		seen[c.Name] = true
	}
	if r.Err() != nil {
		return nil
	}
	return NewSchema(cols...)
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
