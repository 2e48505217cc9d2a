package server

// End-to-end tests for the persistent framed protocol: answers must
// match POST /query on the same system bit for bit, pipelined requests
// must all answer in order, malformed traffic must be answered with
// structured errors (or close the connection when the stream is
// undelimitable), and Shutdown must close live framed connections.

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// dialTestFramed starts a framed listener on the test server and
// returns a connected socket with buffered endpoints.
func dialTestFramed(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	ln, err := srv.ListenAndServeFramed("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// framedExchange sends one request and decodes the one response.
func framedExchange(t *testing.T, conn net.Conn, br *bufio.Reader, id uint32, req QueryRequest) QueryResponse {
	t.Helper()
	frame, err := AppendRequest(nil, id, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	payload, err := ReadFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	gotID, resp, ferr := DecodeResponse(payload)
	if ferr != nil {
		t.Fatalf("decode response: %v", ferr)
	}
	if gotID != id {
		t.Fatalf("response id %d for request %d", gotID, id)
	}
	return resp
}

func TestFramedMatchesHTTPBitForBit(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn, br := dialTestFramed(t, srv)

	cases := []QueryRequest{
		{SQL: "SELECT SUM(value) FROM vals"},
		{SQL: "SELECT MIN(value) WITHIN 5 FROM vals"},
		{SQL: "SELECT AVG(value) WITHIN 2 FROM vals WHERE value > 100; SELECT COUNT(value) FROM vals"},
		{SQL: "SELECT MAX(value) FROM vals", Mode: "precise"},
		{SQL: "SELECT SUM(value) WITHIN 0.5 FROM vals", Budget: floatPtr(3)},
		{SQL: "SELECT BOGUS(value) FROM vals"},
		{SQL: "SELECT SUM(value) FROM missing"},
	}
	for i, req := range cases {
		_, viaHTTP := postQuery(t, ts.URL, req)
		viaFrame := framedExchange(t, conn, br, uint32(i+1), req)
		normalizeResponses(&viaHTTP, &viaFrame)
		if !reflect.DeepEqual(viaHTTP, viaFrame) {
			t.Errorf("case %d (%s):\n http %+v\nframe %+v", i, req.SQL, viaHTTP, viaFrame)
		}
	}
}

// normalizeResponses zeroes wall-clock fields before comparison.
func normalizeResponses(rs ...*QueryResponse) {
	for _, r := range rs {
		for i := range r.Results {
			r.Results[i].ChooseTimeNS = 0
		}
	}
}

func TestFramedPipelining(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	srv := New(sys, Config{})
	conn, br := dialTestFramed(t, srv)

	// One write carrying a burst of requests; responses come back in
	// order, one per request.
	const n = 50
	var burst []byte
	var err error
	for i := 1; i <= n; i++ {
		sql := "SELECT SUM(value) FROM vals"
		if i%3 == 0 {
			sql = "SELECT MIN(value) WITHIN 5 FROM vals"
		}
		burst, err = AppendRequest(burst, uint32(i), QueryRequest{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 1; i <= n; i++ {
		payload, err := ReadFrame(br, &buf)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		id, resp, ferr := DecodeResponse(payload)
		if ferr != nil {
			t.Fatalf("response %d: %v", i, ferr)
		}
		if id != uint32(i) {
			t.Fatalf("response %d carries id %d", i, id)
		}
		if resp.Error != nil || len(resp.Results) != 1 {
			t.Fatalf("response %d: err %+v, %d results", i, resp.Error, len(resp.Results))
		}
	}
	if srv.SnapshotMetrics().Requests < n {
		t.Error("framed requests not counted")
	}
}

func TestFramedMalformedTraffic(t *testing.T) {
	sys := buildSystem(t, 1, 2)
	srv := New(sys, Config{})

	t.Run("bad request body keeps the connection", func(t *testing.T) {
		conn, br := dialTestFramed(t, srv)
		// A request frame with an undefined flag bit: structured error,
		// connection survives.
		frame, err := AppendRequest(nil, 7, QueryRequest{SQL: "SELECT SUM(value) FROM vals"})
		if err != nil {
			t.Fatal(err)
		}
		frame[4+5] |= 0x80 // flags byte: offset 4 (len prefix) + 5 (type+id)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		payload, err := ReadFrame(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		_, resp, ferr := DecodeResponse(payload)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if resp.Error == nil || resp.Error.Code != CodeInvalid {
			t.Fatalf("want invalid error, got %+v", resp)
		}
		// The connection still serves.
		if resp := framedExchange(t, conn, br, 8, QueryRequest{SQL: "SELECT SUM(value) FROM vals"}); resp.Error != nil {
			t.Fatalf("connection dead after recoverable error: %+v", resp.Error)
		}
	})

	t.Run("oversized frame closes the connection", func(t *testing.T) {
		conn, br := dialTestFramed(t, srv)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], MaxFrameLen+1)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		payload, err := ReadFrame(br, &buf)
		if err == nil {
			// The server answers with a final error frame, then closes.
			if _, resp, ferr := DecodeResponse(payload); ferr != nil || resp.Error == nil {
				t.Fatalf("want final error frame, got ferr=%v resp=%+v", ferr, resp)
			}
			if _, err := ReadFrame(br, &buf); err == nil {
				t.Fatal("connection still open after framing violation")
			}
		}
	})
}

func TestFramedShutdownClosesConnections(t *testing.T) {
	sys := buildSystem(t, 1, 2)
	srv := New(sys, Config{})
	conn, br := dialTestFramed(t, srv)

	if resp := framedExchange(t, conn, br, 1, QueryRequest{SQL: "SELECT SUM(value) FROM vals"}); resp.Error != nil {
		t.Fatalf("pre-shutdown query failed: %+v", resp.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The read loop unblocks and the socket closes.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf []byte
	if _, err := ReadFrame(br, &buf); err == nil {
		t.Fatal("connection survived shutdown")
	}
	if got := srv.SnapshotMetrics().FramedConnections; got != 0 {
		// The close is asynchronous; give it a beat.
		time.Sleep(100 * time.Millisecond)
		if got = srv.SnapshotMetrics().FramedConnections; got != 0 {
			t.Fatalf("%d framed connections still gauged after shutdown", got)
		}
	}
}

// TestFramedLatencyCoversEveryFrame pins the framed histogram's
// coverage: one observation per frame, including frames whose request
// fails to decode — the server-side percentiles must account for codec
// work and error frames, not just successfully executed requests.
func TestFramedLatencyCoversEveryFrame(t *testing.T) {
	sys := buildSystem(t, 1, 2)
	srv := New(sys, Config{})
	conn, br := dialTestFramed(t, srv)

	if resp := framedExchange(t, conn, br, 1, QueryRequest{SQL: "SELECT SUM(value) FROM vals"}); resp.Error != nil {
		t.Fatalf("query failed: %+v", resp.Error)
	}
	// A request-typed frame with a truncated body: DecodeRequest fails,
	// the server answers an error frame and keeps the connection.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1)
	if _, err := conn.Write(append(hdr[:], FrameRequest)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	payload, err := ReadFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, resp, ferr := DecodeResponse(payload); ferr != nil || resp.Error == nil || resp.Error.Code != CodeInvalid {
		t.Fatalf("want invalid-error frame, got ferr=%v resp=%+v", ferr, resp)
	}
	// The serve loop observes a frame after flushing its response (flush
	// time belongs to the frame), so the reply can reach this goroutine
	// before the observation lands: wait for the count, don't snapshot it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := srv.SnapshotMetrics().FramedLatency.Count
		if got == 2 {
			break
		}
		if got > 2 || time.Now().After(deadline) {
			t.Fatalf("framed latency observed %d frames, want 2 (good + undecodable)", got)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestApproxSolverSameOverBothWires(t *testing.T) {
	// A client may name the FPTAS on either wire. Over a thousand tuples
	// its table at the default ε would run to tens of GB; held to the
	// memory ceiling, both wires answer — and answer alike, each over an
	// identical system.
	req := QueryRequest{SQL: "SELECT SUM(value) WITHIN 5000 FROM vals", Solver: "approx"}
	httpSys, frameSys := buildSystem(t, 10, 100), buildSystem(t, 10, 100)
	httpSys.Clock.Advance(50)
	frameSys.Clock.Advance(50)
	ts := httptest.NewServer(New(httpSys, Config{}).Handler())
	defer ts.Close()
	conn, br := dialTestFramed(t, New(frameSys, Config{}))
	_, viaHTTP := postQuery(t, ts.URL, req)
	viaFrame := framedExchange(t, conn, br, 1, req)
	normalizeResponses(&viaHTTP, &viaFrame)
	if viaHTTP.Error != nil || len(viaHTTP.Results) != 1 || viaHTTP.Results[0].Refreshed == 0 {
		t.Fatalf("http answer %+v: want one refresh-paying result", viaHTTP)
	}
	if !reflect.DeepEqual(viaHTTP, viaFrame) {
		t.Errorf("http %+v\nframe %+v", viaHTTP, viaFrame)
	}
}

// TestNestedPredicateRejected sends a WHERE clause of NOTs that fills
// almost the whole 1 MiB request cap over both wires: the parser's node
// cap must reject it as a positioned parse error, before any rendering
// or plan-cache keying sees it.
func TestNestedPredicateRejected(t *testing.T) {
	sys := buildSystem(t, 1, 2)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn, br := dialTestFramed(t, srv)

	const prefix, tail = "SELECT SUM(value) FROM vals WHERE ", "value > 1"
	nots := (MaxFrameLen - 4096 - len(prefix) - len(tail)) / len("NOT ")
	req := QueryRequest{SQL: prefix + strings.Repeat("NOT ", nots) + tail}
	status, viaHTTP := postQuery(t, ts.URL, req)
	viaFrame := framedExchange(t, conn, br, 1, req)
	for wire, qr := range map[string]QueryResponse{"http": viaHTTP, "framed": viaFrame} {
		if qr.Error == nil || qr.Error.Code != CodeParse || qr.Error.Pos == nil {
			t.Errorf("%s: error %+v, want a positioned %s", wire, qr.Error, CodeParse)
		}
	}
	if status != 400 {
		t.Errorf("http status %d, want 400", status)
	}
}
