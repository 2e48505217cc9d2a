package server

// Binary frame codec for the persistent wire protocol (DESIGN.md §13),
// written on internal/codec.
//
// A frame is a 4-byte little-endian payload length followed by the
// payload; the payload's first byte is the frame type. Requests and
// responses are fixed-layout binary: intervals and costs travel as raw
// IEEE-754 bits (bit-exact by construction, no float formatting or
// parsing anywhere on the path), strings are length-prefixed, and
// optional fields are declared by flag bits. Encoding appends into
// caller-owned buffers — the encoder itself never allocates — and
// decoding is strict and canonical: every accepted payload re-encodes to
// exactly the same bytes (the FuzzDecodeFrame invariant), every rejection
// is a *FrameError positioned in the payload, and no input can panic the
// decoder. Strictness is what buys canonicality: redundant encodings
// (undefined flag bits, a zero deadline with its flag set, a boolean byte
// other than 0 or 1, trailing bytes) are rejected rather than normalized.
//
// Traces do not travel over frames: EXPLAIN ANALYZE and the trace flag
// are HTTP-only (span trees are deep JSON; the framed path exists to
// avoid exactly that).

import (
	"fmt"
	"io"
	"math"

	"trapp/internal/codec"
)

// Frame layout constants.
const (
	// MaxFrameLen bounds a frame payload, mirroring the HTTP body cap.
	MaxFrameLen = 1 << 20

	// FrameRequest and FrameResponse are the payload type bytes.
	FrameRequest  byte = 0x01
	FrameResponse byte = 0x02
)

// Request flag bits.
const (
	reqFlagDeadline byte = 1 << 0
	reqFlagBudget   byte = 1 << 1
	reqFlagMode     byte = 1 << 2
	reqFlagSolver   byte = 1 << 3
	reqFlagsKnown        = reqFlagDeadline | reqFlagBudget | reqFlagMode | reqFlagSolver
)

// Error-record field-mask bits.
const (
	errFieldPos      byte = 1 << 0
	errFieldAchieved byte = 1 << 1
	errFieldSpent    byte = 1 << 2
	errFieldBudget   byte = 1 << 3
	errFieldCause    byte = 1 << 4
	errFieldsKnown        = errFieldPos | errFieldAchieved | errFieldSpent | errFieldBudget | errFieldCause
)

// FrameError is the structured decode failure: every malformed input is
// rejected with one (never a panic), positioned at the payload offset
// where decoding failed.
type FrameError = codec.Error

// Enum tables: a name's wire byte is its index, and byte 0 is reserved
// as invalid. The sets are closed: the encoder only produces these, and
// the decoder rejects bytes outside them.
var (
	frameCodeNames = []string{"", CodeParse, CodeUnknownTable, CodeUnknownColumn, CodeNoOracle,
		CodeUnsupported, CodeInvalid, CodePrecisionUnmet, CodeBudgetExhausted, CodeDeadline,
		CodeCanceled, CodeOverCapacity, CodeDraining, CodeClosed, CodeInternal}
	frameModeNames   = []string{"", "bounded", "precise", "imprecise"}
	frameSolverNames = []string{"", "auto", "exact-dp", "approx", "greedy-uniform", "greedy-density"}
)

// enumByte returns name's wire byte in names, or 0 when it has none.
func enumByte(names []string, name string) byte {
	for i := 1; i < len(names); i++ {
		if names[i] == name {
			return byte(i)
		}
	}
	return 0
}

// readEnum reads one enum byte and returns its name.
func readEnum(r *codec.Reader, names []string) string {
	name := names[r.Enum(byte(len(names)-1))]
	if name == "" {
		r.Failf("reserved enum byte 0x00")
	}
	return name
}

// ---------------------------------------------------------------------
// Encoding.

// AppendRequest appends one framed query request to dst and returns the
// extended slice. Unencodable requests (trace flags, unknown mode or
// solver names, oversized SQL) return an error with dst unmodified.
func AppendRequest(dst []byte, id uint32, req QueryRequest) ([]byte, error) {
	if req.Trace {
		return dst, fmt.Errorf("frame: traces are not supported over the framed protocol")
	}
	var flags byte
	if req.DeadlineMillis != 0 {
		flags |= reqFlagDeadline
	}
	if req.Budget != nil {
		flags |= reqFlagBudget
	}
	var modeB, solverB byte
	if req.Mode != "" {
		if modeB = enumByte(frameModeNames, req.Mode); modeB == 0 {
			return dst, fmt.Errorf("frame: unknown mode %q", req.Mode)
		}
		flags |= reqFlagMode
	}
	if req.Solver != "" {
		if solverB = enumByte(frameSolverNames, req.Solver); solverB == 0 {
			return dst, fmt.Errorf("frame: unknown solver %q", req.Solver)
		}
		flags |= reqFlagSolver
	}
	if len(req.SQL) > MaxFrameLen-64 {
		return dst, fmt.Errorf("frame: sql too large (%d bytes)", len(req.SQL))
	}
	dst, start := codec.BeginFrame(dst, FrameRequest)
	dst = codec.AppendU32(dst, id)
	dst = append(dst, flags)
	if flags&reqFlagDeadline != 0 {
		dst = codec.AppendU64(dst, uint64(req.DeadlineMillis))
	}
	if flags&reqFlagBudget != 0 {
		dst = codec.AppendF64(dst, float64(*req.Budget))
	}
	if flags&reqFlagMode != 0 {
		dst = append(dst, modeB)
	}
	if flags&reqFlagSolver != 0 {
		dst = append(dst, solverB)
	}
	dst = codec.AppendStr32(dst, req.SQL)
	return codec.FinishFrame(dst, start), nil
}

// appendErrRecord appends one error record (shared by request-level and
// per-result errors).
func appendErrRecord(dst []byte, we *WireError) ([]byte, error) {
	code := enumByte(frameCodeNames, we.Code)
	if code == 0 {
		return dst, fmt.Errorf("frame: unknown error code %q", we.Code)
	}
	if len(we.Message) > math.MaxUint16 {
		return dst, fmt.Errorf("frame: error message too large (%d bytes)", len(we.Message))
	}
	var mask byte
	if we.Pos != nil {
		mask |= errFieldPos
	}
	if we.Achieved != nil {
		mask |= errFieldAchieved
	}
	if we.Spent != nil {
		mask |= errFieldSpent
	}
	if we.Budget != nil {
		mask |= errFieldBudget
	}
	var causeB byte
	if we.Cause != "" {
		if causeB = enumByte(frameCodeNames, we.Cause); causeB == 0 {
			return dst, fmt.Errorf("frame: unknown cause %q", we.Cause)
		}
		mask |= errFieldCause
	}
	dst = append(dst, code)
	dst = codec.AppendStr16(dst, we.Message)
	dst = append(dst, mask)
	if mask&errFieldPos != 0 {
		dst = codec.AppendU32(dst, uint32(*we.Pos))
	}
	if mask&errFieldAchieved != 0 {
		dst = codec.AppendF64(dst, float64(we.Achieved.Lo))
		dst = codec.AppendF64(dst, float64(we.Achieved.Hi))
	}
	if mask&errFieldSpent != 0 {
		dst = codec.AppendF64(dst, float64(*we.Spent))
	}
	if mask&errFieldBudget != 0 {
		dst = codec.AppendF64(dst, float64(*we.Budget))
	}
	if mask&errFieldCause != 0 {
		dst = append(dst, causeB)
	}
	return dst, nil
}

// AppendResponse appends one framed query response to dst. Responses
// carrying traces are unencodable (the framed path never produces them).
func AppendResponse(dst []byte, id uint32, resp QueryResponse) ([]byte, error) {
	dst, start := codec.BeginFrame(dst, FrameResponse)
	dst = codec.AppendU32(dst, id)
	if resp.Error != nil {
		dst = append(dst, 1)
		var err error
		if dst, err = appendErrRecord(dst, resp.Error); err != nil {
			return dst[:start], err
		}
		return codec.FinishFrame(dst, start), nil
	}
	if len(resp.Results) > math.MaxUint16 {
		return dst[:start], fmt.Errorf("frame: too many results (%d)", len(resp.Results))
	}
	dst = append(dst, 0)
	dst = codec.AppendU16(dst, uint16(len(resp.Results)))
	for i := range resp.Results {
		r := &resp.Results[i]
		if r.Trace != nil {
			return dst[:start], fmt.Errorf("frame: traces are not supported over the framed protocol")
		}
		dst = codec.AppendF64(dst, float64(r.Answer.Lo))
		dst = codec.AppendF64(dst, float64(r.Answer.Hi))
		dst = codec.AppendF64(dst, float64(r.Initial.Lo))
		dst = codec.AppendF64(dst, float64(r.Initial.Hi))
		dst = codec.AppendU32(dst, uint32(r.Refreshed))
		dst = codec.AppendF64(dst, float64(r.RefreshCost))
		dst = codec.AppendBool(dst, r.Met)
		dst = codec.AppendU64(dst, uint64(r.ChooseTimeNS))
		dst = codec.AppendBool(dst, r.Error != nil)
		if r.Error != nil {
			var err error
			if dst, err = appendErrRecord(dst, r.Error); err != nil {
				return dst[:start], err
			}
		}
	}
	dst = codec.AppendBool(dst, resp.BudgetRemaining != nil)
	if resp.BudgetRemaining != nil {
		dst = codec.AppendF64(dst, float64(*resp.BudgetRemaining))
	}
	return codec.FinishFrame(dst, start), nil
}

// ---------------------------------------------------------------------
// Decoding: each decoder reads its message top to bottom and checks the
// reader once.

// done ends a decode with the reader's first rejection, if any.
func done(r *codec.Reader) *FrameError {
	ferr, _ := r.Done().(*FrameError)
	return ferr
}

func readFloat(r *codec.Reader) *Float {
	f := Float(r.F64())
	return &f
}

func readInterval(r *codec.Reader) WireInterval {
	return WireInterval{Lo: Float(r.F64()), Hi: Float(r.F64())}
}

// DecodeRequest decodes a request payload (type byte included).
func DecodeRequest(payload []byte) (id uint32, req QueryRequest, ferr *FrameError) {
	r := codec.NewReader(payload)
	r.Expect(FrameRequest)
	id = r.U32()
	flags := r.U8()
	if flags&^reqFlagsKnown != 0 {
		r.Failf("undefined flag bits 0x%02x", flags&^reqFlagsKnown)
	}
	if flags&reqFlagDeadline != 0 {
		if req.DeadlineMillis = int64(r.U64()); req.DeadlineMillis == 0 {
			r.Failf("deadline flag set with zero deadline")
		}
	}
	if flags&reqFlagBudget != 0 {
		req.Budget = readFloat(r)
	}
	if flags&reqFlagMode != 0 {
		req.Mode = readEnum(r, frameModeNames)
	}
	if flags&reqFlagSolver != 0 {
		req.Solver = readEnum(r, frameSolverNames)
	}
	req.SQL = r.Str32()
	return id, req, done(r)
}

// decodeErrRecord decodes one error record.
func decodeErrRecord(r *codec.Reader) *WireError {
	we := &WireError{Code: readEnum(r, frameCodeNames), Message: r.Str16()}
	mask := r.U8()
	if mask&^errFieldsKnown != 0 {
		r.Failf("undefined error field bits 0x%02x", mask&^errFieldsKnown)
	}
	if mask&errFieldPos != 0 {
		pos := int(r.U32())
		we.Pos = &pos
	}
	if mask&errFieldAchieved != 0 {
		iv := readInterval(r)
		we.Achieved = &iv
	}
	if mask&errFieldSpent != 0 {
		we.Spent = readFloat(r)
	}
	if mask&errFieldBudget != 0 {
		we.Budget = readFloat(r)
	}
	if mask&errFieldCause != 0 {
		we.Cause = readEnum(r, frameCodeNames)
	}
	return we
}

// minResultLen is the encoded size of a result without an error record.
const minResultLen = 46

// DecodeResponse decodes a response payload (type byte included).
func DecodeResponse(payload []byte) (id uint32, resp QueryResponse, ferr *FrameError) {
	r := codec.NewReader(payload)
	r.Expect(FrameResponse)
	id = r.U32()
	if r.Bool() {
		resp.Error = decodeErrRecord(r)
		return id, resp, done(r)
	}
	// Pre-check the count so a hostile one cannot force a huge
	// allocation before the truncation is noticed.
	n := int(r.U16())
	if n*minResultLen > r.Len() {
		r.Failf("result count %d exceeds payload", n)
		n = 0
	}
	if n > 0 {
		resp.Results = make([]WireResult, n)
	}
	for i := range resp.Results {
		w := &resp.Results[i]
		w.Answer = readInterval(r)
		w.Initial = readInterval(r)
		w.Refreshed = int(r.U32())
		w.RefreshCost = Float(r.F64())
		w.Met = r.Bool()
		w.ChooseTimeNS = int64(r.U64())
		if r.Bool() {
			w.Error = decodeErrRecord(r)
		}
	}
	if r.Bool() {
		resp.BudgetRemaining = readFloat(r)
	}
	return id, resp, done(r)
}

// ReadFrame reads one length-prefixed frame payload from br into buf
// (reused and grown as needed), returning the payload slice. io.EOF is
// returned untouched at a clean frame boundary; a *FrameError marks an
// unrecoverable framing violation (the connection must close, since the
// byte stream can no longer be delimited).
func ReadFrame(br io.Reader, buf *[]byte) ([]byte, error) {
	return codec.ReadFrame(br, buf, MaxFrameLen)
}
