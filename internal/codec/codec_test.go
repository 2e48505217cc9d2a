package codec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"trapp/internal/interval"
)

func TestRoundTrip(t *testing.T) {
	iv := interval.Interval{Lo: -1.5, Hi: math.Inf(1)}
	b := AppendU16(nil, 0xbeef)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, math.MaxUint64-1)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendBool(b, true)
	b = AppendStr16(b, "sixteen")
	b = AppendStr32(b, "")
	b = AppendInterval(b, iv)
	b = append(b, 3, 7)

	r := NewReader(b)
	if v := r.U16(); v != 0xbeef {
		t.Errorf("U16 %x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 %x", v)
	}
	if v := r.U64(); v != math.MaxUint64-1 {
		t.Errorf("U64 %x", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 %v lost its sign bit", v)
	}
	if !r.Bool() || r.Str16() != "sixteen" || r.Str32() != "" || r.Interval() != iv {
		t.Error("Bool/Str16/Str32/Interval diverged")
	}
	if r.Enum(3) != 3 {
		t.Error("Enum")
	}
	r.Expect(7)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// Little-endian, one byte order.
	if !bytes.Equal(AppendU32(nil, 0x01020304), []byte{4, 3, 2, 1}) {
		t.Error("not little-endian")
	}
}

// TestStickyError: the first failure's offset wins, every read after it
// returns a zero value, and Done reports the first failure.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if r.U16() != 0x0201 {
		t.Fatal("U16")
	}
	if r.Bool() || r.Err() == nil {
		t.Fatal("byte 9 read as a boolean")
	}
	if r.U64() != 0 || r.U8() != 0 || r.Str16() != "" || r.Bytes(1) != nil || r.Count(1) != 0 {
		t.Error("a read after the failure returned a value")
	}
	r.Failf("a later failure")
	var e *Error
	if err := r.Done(); !errors.As(err, &e) || e.Offset != 2 {
		t.Fatalf("Done = %v, want the non-boolean byte at offset 2", err)
	}
}

func TestRejections(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		read func(r *Reader)
		off  int
	}{
		{"truncated", []byte{1, 2, 3}, func(r *Reader) { r.U8(); r.U32() }, 1},
		{"trailing", []byte{1, 2, 3}, func(r *Reader) { r.U16() }, 2},
		{"enum", []byte{0, 4}, func(r *Reader) { r.Enum(3); r.Enum(3) }, 1},
		{"expect", []byte{0x11}, func(r *Reader) { r.Expect(0x10) }, 0},
		{"count", []byte{3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, func(r *Reader) { r.Count(4) }, 0},
		{"string", []byte{5, 0, 'a', 'b'}, func(r *Reader) { r.Str16() }, 2},
	}
	for _, tc := range cases {
		r := NewReader(tc.b)
		tc.read(r)
		var e *Error
		if err := r.Done(); !errors.As(err, &e) || e.Offset != tc.off || e.Msg == "" {
			t.Errorf("%s: Done = %v, want a rejection at offset %d", tc.name, err, tc.off)
		}
	}
	// A count that fits is accepted.
	r := NewReader([]byte{2, 0, 0, 0, 1, 2})
	if n := r.Count(1); n != 2 || r.Bytes(n) == nil || r.Done() != nil {
		t.Error("fitting count rejected")
	}
}

func TestFrame(t *testing.T) {
	dst, start := BeginFrame([]byte("x"), 0x42)
	dst = AppendU16(dst, 7)
	dst = FinishFrame(dst, start)
	dst, start = BeginFrame(dst, 0x43)
	dst = FinishFrame(dst, start)
	if !bytes.Equal(dst, []byte{'x', 3, 0, 0, 0, 0x42, 7, 0, 1, 0, 0, 0, 0x43}) {
		t.Fatalf("frames %x", dst)
	}

	br := bytes.NewReader(dst[1:])
	var buf []byte
	for _, want := range [][]byte{{0x42, 7, 0}, {0x43}} {
		p, err := ReadFrame(br, &buf, 3)
		if err != nil || !bytes.Equal(p, want) {
			t.Fatalf("ReadFrame = %x, %v; want %x", p, err, want)
		}
	}
	if _, err := ReadFrame(br, &buf, 3); err != io.EOF {
		t.Fatalf("clean boundary: %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(dst[1:5]), &buf, 3); err != io.ErrUnexpectedEOF {
		t.Fatalf("cut frame: %v, want io.ErrUnexpectedEOF", err)
	}
	var e *Error
	if _, err := ReadFrame(bytes.NewReader(dst[1:]), &buf, 2); !errors.As(err, &e) {
		t.Fatalf("frame over the cap: %v, want an *Error", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), &buf, 2); !errors.As(err, &e) {
		t.Fatalf("empty frame: %v, want an *Error", err)
	}
}
