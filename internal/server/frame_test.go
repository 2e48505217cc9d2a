package server

// Frame codec tests: encode→decode→encode round trips for requests and
// responses across the optional-field space, strictness rejections, and
// the FuzzDecodeFrame invariant — no panic on any input, structured
// *FrameError on rejection, and byte-identical re-encoding of every
// accepted payload.

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// sampleRequests covers every optional-field combination worth having.
func sampleRequests() []QueryRequest {
	return []QueryRequest{
		{SQL: "SELECT SUM(value) FROM vals"},
		{SQL: "SELECT MIN(value) FROM vals WITHIN 5", DeadlineMillis: 1500},
		{SQL: "SELECT AVG(value) FROM vals WITHIN 2", Budget: floatPtr(12.5)},
		{SQL: "SELECT MAX(value) FROM vals", Mode: "precise"},
		{SQL: "SELECT COUNT(value) FROM vals WHERE value > 10 WITHIN 3", Solver: "greedy-density"},
		{SQL: "SELECT SUM(value) FROM vals WITHIN 1", DeadlineMillis: -1,
			Budget: floatPtr(0), Mode: "imprecise", Solver: "auto"},
		{SQL: ""},
	}
}

// sampleResponses covers ok/error shapes, result errors, and budgets.
func sampleResponses() []QueryResponse {
	pos := 7
	return []QueryResponse{
		{Results: []WireResult{}},
		{Results: []WireResult{{
			Answer:    WireInterval{Lo: 1.25, Hi: 2.5},
			Initial:   WireInterval{Lo: 0.5, Hi: 3.5},
			Refreshed: 3, RefreshCost: 9.75, Met: true, ChooseTimeNS: 12345,
		}}},
		{Results: []WireResult{
			{Answer: WireInterval{Lo: -1, Hi: 1}, Met: false, Error: &WireError{
				Code: CodePrecisionUnmet, Message: "deadline",
				Achieved: &WireInterval{Lo: -1, Hi: 1},
				Spent:    floatPtr(4), Cause: CodeDeadline,
			}},
			{Answer: WireInterval{Lo: 2, Hi: 2}, Met: true},
		}, BudgetRemaining: floatPtr(88)},
		{Error: &WireError{Code: CodeParse, Message: "bad sql", Pos: &pos}},
		{Error: &WireError{Code: CodeBudgetExhausted, Message: "spent",
			Achieved: &WireInterval{Lo: 0, Hi: 10}, Spent: floatPtr(5), Budget: floatPtr(5)}},
	}
}

func TestRequestFrameRoundTrip(t *testing.T) {
	for i, req := range sampleRequests() {
		frame, err := AppendRequest(nil, uint32(1000+i), req)
		if err != nil {
			t.Fatalf("req %d: encode: %v", i, err)
		}
		payload := frame[4:] // strip length prefix
		id, got, ferr := DecodeRequest(payload)
		if ferr != nil {
			t.Fatalf("req %d: decode: %v", i, ferr)
		}
		if id != uint32(1000+i) {
			t.Fatalf("req %d: id %d", i, id)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("req %d: round trip %+v != %+v", i, got, req)
		}
		again, err := AppendRequest(nil, id, got)
		if err != nil {
			t.Fatalf("req %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("req %d: re-encode differs", i)
		}
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	for i, resp := range sampleResponses() {
		frame, err := AppendResponse(nil, uint32(i), resp)
		if err != nil {
			t.Fatalf("resp %d: encode: %v", i, err)
		}
		id, got, ferr := DecodeResponse(frame[4:])
		if ferr != nil {
			t.Fatalf("resp %d: decode: %v", i, ferr)
		}
		if id != uint32(i) {
			t.Fatalf("resp %d: id %d", i, id)
		}
		// Empty result slices decode as nil; normalize before comparing.
		want := resp
		if len(want.Results) == 0 {
			want.Results = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resp %d: round trip %+v != %+v", i, got, want)
		}
		again, err := AppendResponse(nil, id, got)
		if err != nil {
			t.Fatalf("resp %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("resp %d: re-encode differs", i)
		}
	}
}

func TestFrameStrictness(t *testing.T) {
	if _, err := AppendRequest(nil, 1, QueryRequest{SQL: "x", Trace: true}); err == nil {
		t.Error("trace request encoded")
	}
	if _, err := AppendRequest(nil, 1, QueryRequest{SQL: "x", Mode: "bogus"}); err == nil {
		t.Error("bogus mode encoded")
	}

	good, err := AppendRequest(nil, 9, QueryRequest{SQL: "SELECT SUM(value) FROM vals"})
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), good[4:]...)

	// Undefined flag bit.
	bad := append([]byte(nil), payload...)
	bad[5] |= 0x80
	if _, _, ferr := DecodeRequest(bad); ferr == nil {
		t.Error("undefined flag bit accepted")
	}
	// Trailing byte.
	if _, _, ferr := DecodeRequest(append(append([]byte(nil), payload...), 0)); ferr == nil {
		t.Error("trailing byte accepted")
	}
	// Truncations at every length must fail cleanly, never panic.
	for n := 0; n < len(payload); n++ {
		if _, _, ferr := DecodeRequest(payload[:n]); ferr == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}

	// Wrong frame type byte routed to the other decoder.
	if _, _, ferr := DecodeResponse(payload); ferr == nil {
		t.Error("request payload accepted as response")
	}
}

// TestFrameTruncationRejected: for every sample request and response,
// every strict prefix and one trailing byte are rejected at an offset
// inside the payload.
func TestFrameTruncationRejected(t *testing.T) {
	type sample struct {
		payload []byte
		decode  func(p []byte) *FrameError
	}
	var samples []sample
	for i, req := range sampleRequests() {
		frame, err := AppendRequest(nil, uint32(i), req)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, sample{frame[4:], func(p []byte) *FrameError { _, _, ferr := DecodeRequest(p); return ferr }})
	}
	for i, resp := range sampleResponses() {
		frame, err := AppendResponse(nil, uint32(i), resp)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, sample{frame[4:], func(p []byte) *FrameError { _, _, ferr := DecodeResponse(p); return ferr }})
	}
	for i, s := range samples {
		if ferr := s.decode(s.payload); ferr != nil {
			t.Fatalf("sample %d: %v", i, ferr)
		}
		for n := 0; n < len(s.payload); n++ {
			if ferr := s.decode(s.payload[:n]); ferr == nil || ferr.Offset > n {
				t.Fatalf("sample %d truncated to %d bytes: %v", i, n, ferr)
			}
		}
		trailing := append(s.payload[:len(s.payload):len(s.payload)], 0)
		if ferr := s.decode(trailing); ferr == nil || ferr.Offset != len(s.payload) {
			t.Fatalf("sample %d with a trailing byte: %v", i, ferr)
		}
	}
}

func TestReadFrame(t *testing.T) {
	var frames []byte
	var err error
	frames, err = AppendRequest(frames, 1, QueryRequest{SQL: "SELECT SUM(value) FROM vals"})
	if err != nil {
		t.Fatal(err)
	}
	frames, err = AppendRequest(frames, 2, QueryRequest{SQL: "SELECT MIN(value) FROM vals"})
	if err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(frames)
	var buf []byte
	for want := uint32(1); want <= 2; want++ {
		payload, err := ReadFrame(br, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		id, _, ferr := DecodeRequest(payload)
		if ferr != nil || id != want {
			t.Fatalf("frame %d: id %d ferr %v", want, id, ferr)
		}
	}
	if _, err := ReadFrame(br, &buf); err != io.EOF {
		t.Fatalf("want io.EOF at clean boundary, got %v", err)
	}

	// Mid-frame cut → ErrUnexpectedEOF (the first frame still reads
	// clean; the error lands on the second).
	cut := bytes.NewReader(frames[:len(frames)-3])
	if _, err := ReadFrame(cut, &buf); err != nil {
		t.Fatalf("intact first frame: %v", err)
	}
	if _, err := ReadFrame(cut, &buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF mid-frame, got %v", err)
	}

	// Oversized and empty frames are framing violations.
	over := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(over), &buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	empty := []byte{0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(empty), &buf); err == nil {
		t.Fatal("empty frame accepted")
	}
}

// FuzzDecodeFrame feeds arbitrary payloads to both decoders: decoding
// must never panic, every rejection must be a structured *FrameError,
// and every accepted payload must re-encode byte-identically (the
// canonical-encoding invariant).
func FuzzDecodeFrame(f *testing.F) {
	for i, req := range sampleRequests() {
		if frame, err := AppendRequest(nil, uint32(i), req); err == nil {
			f.Add(frame[4:])
		}
	}
	for i, resp := range sampleResponses() {
		if frame, err := AppendResponse(nil, uint32(i), resp); err == nil {
			f.Add(frame[4:])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x02, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if id, req, ferr := DecodeRequest(payload); ferr == nil {
			frame, err := AppendRequest(nil, id, req)
			if err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			if !bytes.Equal(frame[4:], payload) {
				t.Fatalf("request re-encode differs:\n in %x\nout %x", payload, frame[4:])
			}
		} else if ferr.Offset < 0 || ferr.Offset > len(payload) || ferr.Msg == "" {
			t.Fatalf("malformed FrameError %+v for %x", ferr, payload)
		}
		if id, resp, ferr := DecodeResponse(payload); ferr == nil {
			frame, err := AppendResponse(nil, id, resp)
			if err != nil {
				t.Fatalf("accepted response does not re-encode: %v", err)
			}
			if !bytes.Equal(frame[4:], payload) {
				t.Fatalf("response re-encode differs:\n in %x\nout %x", payload, frame[4:])
			}
		} else if ferr.Offset < 0 || ferr.Offset > len(payload) || ferr.Msg == "" {
			t.Fatalf("malformed FrameError %+v for %x", ferr, payload)
		}
	})
}
