// Package codec is the one binary codec under the framed client wire
// (internal/server), the partition wire (internal/partition) and the
// write-ahead log and snapshots (internal/relation).
//
// Every multi-byte field is little-endian, the order the log and
// snapshots have always persisted; floats travel as their raw IEEE-754
// bits, so intervals cross every boundary bit-exactly with no formatting
// or parsing. Encoders append into caller-owned buffers. A Reader decodes
// one message top to bottom with a sticky error: the first out-of-bounds
// or invalid read records a positioned *Error, later reads return zero
// values, and one Done at the end reports it or rejects trailing bytes.
package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"trapp/internal/interval"
)

var le = binary.LittleEndian

func AppendU16(dst []byte, v uint16) []byte  { return le.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte  { return le.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte  { return le.AppendUint64(dst, v) }
func AppendF64(dst []byte, v float64) []byte { return le.AppendUint64(dst, math.Float64bits(v)) }

func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendStr16 appends s behind a u16 length; the caller bounds len(s).
func AppendStr16(dst []byte, s string) []byte { return append(AppendU16(dst, uint16(len(s))), s...) }

// AppendStr32 appends s behind a u32 length.
func AppendStr32(dst []byte, s string) []byte { return append(AppendU32(dst, uint32(len(s))), s...) }

func AppendInterval(dst []byte, iv interval.Interval) []byte {
	return AppendF64(AppendF64(dst, iv.Lo), iv.Hi)
}

// BeginFrame appends a 4-byte length slot and the payload's type byte,
// returning the frame's start for FinishFrame.
func BeginFrame(dst []byte, typ byte) ([]byte, int) { return append(dst, 0, 0, 0, 0, typ), len(dst) }

// FinishFrame back-fills the length slot of the frame begun at start.
func FinishFrame(dst []byte, start int) []byte {
	le.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// ReadFrame reads one length-prefixed payload from r into *buf (reused
// and grown as needed). io.EOF comes back untouched at a clean frame
// boundary; an *Error (an empty frame, or one over max bytes) means the
// stream can no longer be delimited.
func ReadFrame(r io.Reader, buf *[]byte, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(le.Uint32(hdr[:]))
	if n == 0 {
		return nil, &Error{Msg: "empty frame"}
	}
	if n > int64(max) {
		return nil, &Error{Msg: fmt.Sprintf("frame of %d bytes exceeds cap %d", n, max)}
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return p, nil
}

// Error is a decode failure positioned at its payload offset.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("codec: %s (at payload offset %d)", e.Msg, e.Offset)
}

// Reader walks one message with bounds-checked reads and a sticky error.
type Reader struct {
	b   []byte
	off int
	err *Error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

// reject records a failure at off unless an earlier one stands: the
// first failure wins. It makes no call, so the reads inline.
func (r *Reader) reject(off int, msg string) {
	if r.err == nil {
		r.err = &Error{Offset: off, Msg: msg}
	}
}

// Failf rejects the message at the current offset unless an earlier
// failure stands.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.reject(r.off, fmt.Sprintf(format, args...))
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error {
	if r.err == nil {
		return nil
	}
	return r.err
}

// Done ends a message: the first failure, or a rejection of trailing bytes.
func (r *Reader) Done() error {
	if r.off != len(r.b) {
		r.Failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.Err()
}

// Len returns the bytes left unread.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Bytes returns the next n bytes (aliasing the payload), or nil.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.reject(r.off, "truncated")
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

var zeros [8]byte

// fixed returns the next n ≤ 8 bytes, or n zero bytes after a failure.
func (r *Reader) fixed(n int) []byte {
	if r.err != nil || len(r.b)-r.off < n {
		r.reject(r.off, "truncated")
		return zeros[:n]
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *Reader) U8() byte      { return r.fixed(1)[0] }
func (r *Reader) U16() uint16   { return le.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32   { return le.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64   { return le.Uint64(r.fixed(8)) }
func (r *Reader) F64() float64  { return math.Float64frombits(r.U64()) }
func (r *Reader) Str16() string { return string(r.Bytes(int(r.U16()))) }
func (r *Reader) Str32() string { return string(r.Bytes(int(r.U32()))) }

func (r *Reader) Interval() interval.Interval { return interval.Interval{Lo: r.F64(), Hi: r.F64()} }

// Bool reads a strict boolean: a byte other than 0 or 1 is rejected.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.reject(r.off-1, "non-boolean byte")
	}
	return v == 1
}

// Enum reads a byte in [0, max]; anything above is rejected and reads 0.
func (r *Reader) Enum(max byte) byte {
	v := r.U8()
	if v > max {
		r.reject(r.off-1, "enum byte out of range")
		return 0
	}
	return v
}

// Expect reads a byte that must equal want (a frame or record type).
func (r *Reader) Expect(want byte) {
	if v := r.U8(); v != want {
		r.reject(r.off-1, "unexpected type byte")
	}
}

// Count reads a u32 element count, rejecting one whose elements could
// not fit in the bytes left at elemSize each, so a hostile count cannot
// force a large allocation before the truncation shows.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if n*elemSize > r.Len() {
		r.reject(r.off-4, "count exceeds payload")
		return 0
	}
	return n
}
