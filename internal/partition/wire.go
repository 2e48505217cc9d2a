package partition

// Wire codec for the partition coordination protocol, written on
// internal/codec.
//
// The protocol rides the server's persistent framed listener: frame
// types at or above server.FrameExtBase are dispatched to the node-side
// Service (service.go) instead of the core query decoder, so one
// trappserver port carries both client queries and coordinator traffic.
// The framing is the server's — 4-byte little-endian length prefix,
// payload[0] is the type byte, floats travel as raw IEEE-754 bits,
// strings are length-prefixed — and so is the strictness: booleans are
// 0 or 1, enum bytes are range-checked, the type byte must match, and
// trailing bytes are rejected, so every accepted payload re-encodes
// byte-identically (FuzzDecodePartitionFrame). The payload vocabulary is
// fold state, classified inputs, and refresh outcomes rather than SQL
// results.
//
// Requests carry the remaining request deadline as relative nanoseconds
// (0 = none): absolute deadlines do not survive clock skew between
// coordinator and partitions, remaining time does. Error responses carry
// a kind byte so context errors reconstruct as the canonical
// context.DeadlineExceeded / context.Canceled sentinels across the wire
// — the coordinator's degradation taxonomy branches on them. A refresh
// error response also carries the partition's RefreshOutcome: what it
// installed before failing was paid for, and the coordinator charges it.

import (
	"context"
	"errors"
	"math"

	"trapp/internal/aggregate"
	"trapp/internal/codec"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
	"trapp/internal/server"
)

// Partition frame types (all ≥ server.FrameExtBase).
const (
	frameStateReq     byte = server.FrameExtBase + iota // 0x10
	frameStateResp                                      // 0x11
	frameInputsReq                                      // 0x12
	frameInputsResp                                     // 0x13
	frameRefreshReq                                     // 0x14
	frameRefreshResp                                    // 0x15
	frameSubscribeReq                                   // 0x16
	frameSubUpdate                                      // 0x17
	frameHelloReq                                       // 0x18
	frameHelloResp                                      // 0x19
)

// maxRespFrame bounds a response frame read by the coordinator. Inputs
// responses scale with partition cardinality, so the cap is far above
// the server's request cap (which still bounds coordinator→node frames).
const maxRespFrame = 1 << 26

// Error kind bytes: how an error response reconstructs on the far side.
const (
	errKindGeneric  byte = 0
	errKindDeadline byte = 1
	errKindCanceled byte = 2
)

// ---------------------------------------------------------------------
// Requests. Layout: [type][u32 id][u64 deadline-remaining-nanos]
// [u32 shapeLen][shape] plus per-type operands. Subscribe has no
// deadline: [type][u32 id][u32 shapeLen][shape][f64 within]. Hello is
// [type][u32 id].

func appendReq(dst []byte, typ byte, id uint32) ([]byte, int) {
	dst, start := codec.BeginFrame(dst, typ)
	return codec.AppendU32(dst, id), start
}

func appendShapeReq(dst []byte, typ byte, id uint32, deadline int64, shape string) ([]byte, int) {
	dst, start := appendReq(dst, typ, id)
	dst = codec.AppendU64(dst, uint64(deadline))
	return codec.AppendStr32(dst, shape), start
}

// AppendStateReq encodes a fold-state request.
func AppendStateReq(dst []byte, id uint32, deadline int64, shape string) []byte {
	dst, start := appendShapeReq(dst, frameStateReq, id, deadline, shape)
	return codec.FinishFrame(dst, start)
}

// AppendInputsReq encodes a classified-inputs request.
func AppendInputsReq(dst []byte, id uint32, deadline int64, shape string) []byte {
	dst, start := appendShapeReq(dst, frameInputsReq, id, deadline, shape)
	return codec.FinishFrame(dst, start)
}

// AppendRefreshReq encodes a refresh fan-out request for the plan keys
// this partition owns.
func AppendRefreshReq(dst []byte, id uint32, deadline int64, shape string, keys []int64) []byte {
	dst, start := appendShapeReq(dst, frameRefreshReq, id, deadline, shape)
	return codec.FinishFrame(appendKeys(dst, keys), start)
}

// AppendSubscribeReq encodes a standing-query registration; within is
// the partition's pro-rata repair target.
func AppendSubscribeReq(dst []byte, id uint32, shape string, within float64) []byte {
	dst, start := appendReq(dst, frameSubscribeReq, id)
	dst = codec.AppendStr32(dst, shape)
	return codec.FinishFrame(codec.AppendF64(dst, within), start)
}

// AppendHelloReq encodes a topology handshake request.
func AppendHelloReq(dst []byte, id uint32) []byte {
	dst, start := appendReq(dst, frameHelloReq, id)
	return codec.FinishFrame(dst, start)
}

func appendKeys(dst []byte, keys []int64) []byte {
	dst = codec.AppendU32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = codec.AppendU64(dst, uint64(k))
	}
	return dst
}

func readKeys(r *codec.Reader) []int64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.U64())
	}
	return keys
}

// openReq starts decoding a request of type typ, returning the reader
// past the request id.
func openReq(payload []byte, typ byte) (*codec.Reader, uint32) {
	r := codec.NewReader(payload)
	r.Expect(typ)
	return r, r.U32()
}

func decodeShapeReq(payload []byte, typ byte) (id uint32, deadline int64, shape string, err error) {
	r, id := openReq(payload, typ)
	deadline = int64(r.U64())
	shape = r.Str32()
	return id, deadline, shape, r.Done()
}

func decodeStateReq(payload []byte) (uint32, int64, string, error) {
	return decodeShapeReq(payload, frameStateReq)
}

func decodeInputsReq(payload []byte) (uint32, int64, string, error) {
	return decodeShapeReq(payload, frameInputsReq)
}

func decodeRefreshReq(payload []byte) (id uint32, deadline int64, shape string, keys []int64, err error) {
	r, id := openReq(payload, frameRefreshReq)
	deadline = int64(r.U64())
	shape = r.Str32()
	keys = readKeys(r)
	return id, deadline, shape, keys, r.Done()
}

func decodeSubscribeReq(payload []byte) (id uint32, shape string, within float64, err error) {
	r, id := openReq(payload, frameSubscribeReq)
	shape = r.Str32()
	within = r.F64()
	return id, shape, within, r.Done()
}

func decodeHelloReq(payload []byte) (uint32, error) {
	r, id := openReq(payload, frameHelloReq)
	return id, r.Done()
}

// ---------------------------------------------------------------------
// Responses. Layout: [type][u32 id][u8 status]; status 1 is an error —
// [u16 msgLen][msg][u8 kind] — and status 0 is followed by the result
// body. A refresh error is followed by the body too: the outcome the
// partition reached before failing.

func appendResp(dst []byte, typ byte, id uint32, err error) ([]byte, int) {
	dst, start := codec.BeginFrame(dst, typ)
	dst = codec.AppendU32(dst, id)
	dst = codec.AppendBool(dst, err != nil)
	if err == nil {
		return dst, start
	}
	msg := err.Error()
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	dst = codec.AppendStr16(dst, msg)
	kind := errKindGeneric
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		kind = errKindDeadline
	case errors.Is(err, context.Canceled):
		kind = errKindCanceled
	}
	return append(dst, kind), start
}

// AppendErrResp encodes an error response of the given type. A refresh
// error goes through AppendRefreshResp, which carries the outcome.
func AppendErrResp(dst []byte, typ byte, id uint32, err error) []byte {
	dst, start := appendResp(dst, typ, id, err)
	return codec.FinishFrame(dst, start)
}

// decodeResp decodes a response of type typ: the header, then body for
// a success (or for a refresh error, beside the reconstructed remote
// error). A malformed payload returns err and nothing else.
func decodeResp[T any](payload []byte, typ byte, body func(*codec.Reader) T) (id uint32, v T, remoteErr, err error) {
	r := codec.NewReader(payload)
	r.Expect(typ)
	id = r.U32()
	if r.Bool() {
		msg := r.Str16()
		remoteErr = reconstructErr(r.Enum(errKindCanceled), msg)
	}
	if remoteErr == nil || typ == frameRefreshResp {
		v = body(r)
	}
	if err = r.Done(); err != nil {
		var zero T
		return id, zero, nil, err
	}
	return id, v, remoteErr, nil
}

// remoteErr carries a remote failure's exact message while unwrapping
// to a context sentinel, so errors.Is sees what the coordinator's
// degradation logic branches on without mangling the text.
type remoteErr struct {
	msg  string
	base error
}

func (e *remoteErr) Error() string { return e.msg }
func (e *remoteErr) Unwrap() error { return e.base }

// reconstructErr rebuilds a remote error so errors.Is sees the context
// sentinels the coordinator's degradation logic branches on.
func reconstructErr(kind byte, msg string) error {
	switch kind {
	case errKindDeadline:
		if msg == context.DeadlineExceeded.Error() {
			return context.DeadlineExceeded
		}
		return &remoteErr{msg: msg, base: context.DeadlineExceeded}
	case errKindCanceled:
		if msg == context.Canceled.Error() {
			return context.Canceled
		}
		return &remoteErr{msg: msg, base: context.Canceled}
	}
	return errors.New(msg)
}

// ---------------------------------------------------------------------
// Fold-state body: the full aggregate.State in fixed layout. Bucket
// arrays travel whole (NumCanonicalBuckets is a protocol constant);
// only AvgMaybes is variable-length.

func appendState(dst []byte, s *aggregate.State) []byte {
	dst = append(dst, byte(s.Fn))
	dst = codec.AppendBool(dst, s.NoPred)
	dst = codec.AppendU64(dst, uint64(s.TableLen))
	for _, sel := range [4]*aggregate.Selection{&s.MinLo, &s.MinHiPlus, &s.MaxHi, &s.MaxLoPlus} {
		dst = codec.AppendBool(dst, sel.Valid)
		dst = codec.AppendF64(dst, sel.Val)
		dst = codec.AppendU64(dst, uint64(sel.Key))
	}
	dst = codec.AppendU64(dst, s.SumPresent)
	dst = appendF64s(appendF64s(dst, s.SumLo[:]), s.SumHi[:])
	dst = codec.AppendU64(dst, uint64(s.Plus))
	dst = codec.AppendU64(dst, uint64(s.Maybe))
	dst = codec.AppendU64(dst, s.AvgSeedPresent)
	dst = appendF64s(appendF64s(dst, s.AvgSeedLo[:]), s.AvgSeedHi[:])
	dst = codec.AppendU64(dst, uint64(s.AvgK))
	dst = codec.AppendBool(dst, s.AvgAny)
	dst = codec.AppendU32(dst, uint32(len(s.AvgMaybes)))
	for _, iv := range s.AvgMaybes {
		dst = codec.AppendInterval(dst, iv)
	}
	return dst
}

func decodeState(r *codec.Reader) (s aggregate.State) {
	s.Fn = aggregate.Func(r.Enum(byte(aggregate.Avg)))
	s.NoPred = r.Bool()
	s.TableLen = int(r.U64())
	for _, sel := range [4]*aggregate.Selection{&s.MinLo, &s.MinHiPlus, &s.MaxHi, &s.MaxLoPlus} {
		sel.Valid = r.Bool()
		sel.Val = r.F64()
		sel.Key = int64(r.U64())
	}
	s.SumPresent = r.U64()
	readF64s(r, s.SumLo[:])
	readF64s(r, s.SumHi[:])
	s.Plus = int(r.U64())
	s.Maybe = int(r.U64())
	s.AvgSeedPresent = r.U64()
	readF64s(r, s.AvgSeedLo[:])
	readF64s(r, s.AvgSeedHi[:])
	s.AvgK = int(r.U64())
	s.AvgAny = r.Bool()
	if n := r.Count(16); n > 0 {
		s.AvgMaybes = make([]interval.Interval, n)
		for i := range s.AvgMaybes {
			s.AvgMaybes[i] = r.Interval()
		}
	}
	return s
}

func appendF64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = codec.AppendF64(dst, v)
	}
	return dst
}

func readF64s(r *codec.Reader, dst []float64) {
	for i := range dst {
		dst[i] = r.F64()
	}
}

// AppendStateResp encodes a fold-state response.
func AppendStateResp(dst []byte, id uint32, s *aggregate.State) []byte {
	dst, start := appendResp(dst, frameStateResp, id, nil)
	return codec.FinishFrame(appendState(dst, s), start)
}

// DecodeStateResp decodes a fold-state response; remoteErr carries a
// reconstructed node-side failure.
func DecodeStateResp(payload []byte) (id uint32, s aggregate.State, remoteErr, err error) {
	return decodeResp(payload, frameStateResp, decodeState)
}

// ---------------------------------------------------------------------
// Classified-inputs body: u64 tableLen, u32 n, then per input
// (u64 key, f64 lo, f64 hi, f64 cost, u8 class). Index is omitted —
// canonical positions are reassigned by aggregate.MergeInputs.

// snapshot is one partition's classified inputs and its cardinality at
// scan time.
type snapshot struct {
	inputs []aggregate.Input
	n      int
}

// AppendInputsResp encodes a classified-inputs response.
func AppendInputsResp(dst []byte, id uint32, inputs []aggregate.Input, tableLen int) []byte {
	dst, start := appendResp(dst, frameInputsResp, id, nil)
	dst = codec.AppendU64(dst, uint64(tableLen))
	dst = codec.AppendU32(dst, uint32(len(inputs)))
	for i := range inputs {
		in := &inputs[i]
		dst = codec.AppendU64(dst, uint64(in.Key))
		dst = codec.AppendInterval(dst, in.Bound)
		dst = codec.AppendF64(dst, in.Cost)
		dst = append(dst, byte(in.Class))
	}
	return codec.FinishFrame(dst, start)
}

// DecodeInputsResp decodes a classified-inputs response.
func DecodeInputsResp(payload []byte) (id uint32, s snapshot, remoteErr, err error) {
	return decodeResp(payload, frameInputsResp, func(r *codec.Reader) (s snapshot) {
		s.n = int(r.U64())
		if n := r.Count(33); n > 0 {
			s.inputs = make([]aggregate.Input, n)
		}
		for i := range s.inputs {
			in := &s.inputs[i]
			in.Key = int64(r.U64())
			in.Bound = r.Interval()
			if in.Cost = r.F64(); !(in.Cost >= 0) || math.IsInf(in.Cost, 1) {
				r.Failf("refresh cost %g is not finite and nonnegative", in.Cost)
			}
			in.Class = predicate.Class(r.Enum(byte(predicate.Plus)))
		}
		return s
	})
}

// ---------------------------------------------------------------------
// Refresh-outcome body: u8 cut, u32 nInstalled, installed keys, then
// the post-refresh fold state.

// AppendRefreshResp encodes a refresh outcome. A non-nil err makes it an
// error response that still carries the outcome, as LocalNode.Refresh
// returns one beside its error.
func AppendRefreshResp(dst []byte, id uint32, out *RefreshOutcome, err error) []byte {
	dst, start := appendResp(dst, frameRefreshResp, id, err)
	dst = codec.AppendBool(dst, out.Cut)
	dst = appendKeys(dst, out.Installed)
	return codec.FinishFrame(appendState(dst, &out.State), start)
}

// DecodeRefreshResp decodes a refresh outcome, beside the reconstructed
// remote error when the partition's refresh failed.
func DecodeRefreshResp(payload []byte) (id uint32, out RefreshOutcome, remoteErr, err error) {
	return decodeResp(payload, frameRefreshResp, func(r *codec.Reader) (out RefreshOutcome) {
		out.Cut = r.Bool()
		out.Installed = readKeys(r)
		out.State = decodeState(r)
		return out
	})
}

// ---------------------------------------------------------------------
// Subscription update body: i64 seq, i64 at, fold state. The same frame
// type with status 1 ends the stream with an error.

// AppendSubUpdate encodes one streamed subscription update.
func AppendSubUpdate(dst []byte, id uint32, u *Update) []byte {
	dst, start := appendResp(dst, frameSubUpdate, id, nil)
	dst = codec.AppendU64(dst, uint64(u.Seq))
	dst = codec.AppendU64(dst, uint64(u.At))
	return codec.FinishFrame(appendState(dst, &u.State), start)
}

// DecodeSubUpdate decodes one streamed subscription update.
func DecodeSubUpdate(payload []byte) (id uint32, u Update, remoteErr, err error) {
	return decodeResp(payload, frameSubUpdate, func(r *codec.Reader) (u Update) {
		u.Seq = int64(r.U64())
		u.At = int64(r.U64())
		u.State = decodeState(r)
		return u
	})
}

// ---------------------------------------------------------------------
// Hello body: the node's ID and table catalog.

// AppendHelloResp encodes a topology handshake response.
func AppendHelloResp(dst []byte, id uint32, h *Hello) []byte {
	dst, start := appendResp(dst, frameHelloResp, id, nil)
	dst = codec.AppendStr16(dst, h.ID)
	dst = codec.AppendU16(dst, uint16(len(h.Tables)))
	for _, t := range h.Tables {
		dst = codec.AppendStr16(dst, t.Name)
		dst = codec.AppendU16(dst, uint16(len(t.Columns)))
		for _, c := range t.Columns {
			dst = codec.AppendStr16(dst, c.Name)
			dst = append(dst, byte(c.Kind))
		}
	}
	return codec.FinishFrame(dst, start)
}

// DecodeHelloResp decodes a topology handshake response.
func DecodeHelloResp(payload []byte) (id uint32, h Hello, remoteErr, err error) {
	return decodeResp(payload, frameHelloResp, func(r *codec.Reader) (h Hello) {
		h.ID = r.Str16()
		nt := int(r.U16())
		for i := 0; i < nt && r.Err() == nil; i++ {
			t := TableSchema{Name: r.Str16()}
			nc := int(r.U16())
			for j := 0; j < nc && r.Err() == nil; j++ {
				c := relation.Column{Name: r.Str16()}
				c.Kind = relation.Kind(r.Enum(byte(relation.Bounded)))
				t.Columns = append(t.Columns, c)
			}
			h.Tables = append(h.Tables, t)
		}
		return h
	})
}
