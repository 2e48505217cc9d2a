package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"trapp"
	"trapp/internal/server"
)

// probeCodec times the frame codec directly — AppendRequest /
// DecodeRequest / AppendResponse / DecodeResponse — on one of the
// workload's statements and a real result for it.
func probeCodec(sys *trapp.System, q *queryOp, div int) (map[string]float64, error) {
	res, err := sys.ExecuteCtx(context.Background(), q.q)
	resp := server.QueryResponse{Results: []server.WireResult{server.ToWireResult(res, err)}}
	req := wireRequest(q)
	rounds := 20000 / div
	var buf, reqFrame, respFrame []byte

	start := time.Now()
	for i := 0; i < rounds; i++ {
		if buf, err = server.AppendRequest(buf[:0], uint32(i), req); err != nil {
			return nil, err
		}
		if buf, err = server.AppendResponse(buf[:0], uint32(i), resp); err != nil {
			return nil, err
		}
	}
	encode := time.Since(start)

	if reqFrame, err = server.AppendRequest(nil, 1, req); err != nil {
		return nil, err
	}
	if respFrame, err = server.AppendResponse(nil, 1, resp); err != nil {
		return nil, err
	}
	// Frames carry a 4-byte length prefix ahead of the payload the
	// decoders take.
	const prefix = 4
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, _, ferr := server.DecodeRequest(reqFrame[prefix:]); ferr != nil {
			return nil, ferr
		}
		if _, _, ferr := server.DecodeResponse(respFrame[prefix:]); ferr != nil {
			return nil, ferr
		}
	}
	decode := time.Since(start)
	return map[string]float64{
		"server.frame_encode_ns":    float64(encode) / float64(rounds),
		"server.frame_decode_ns":    float64(decode) / float64(rounds),
		"server.bytes_per_request":  float64(len(reqFrame)),
		"server.bytes_per_response": float64(len(respFrame)),
	}, nil
}

// probeWire serves the system on loopback listeners of its own and sends
// the workload's statements three ways, one at a time: embedded
// (ParseQuery + ExecuteCtx), over the framed protocol, and as
// POST /query. The framed median minus the embedded median is the wire's
// own cost; the server's counters say how its caches and admission
// fared.
func probeWire(sys *trapp.System, qs []*queryOp, div int) (map[string]float64, error) {
	rounds := 2000 / div
	ctx := context.Background()
	lat := make([]int64, 0, rounds)

	for i := 0; i < rounds; i++ {
		q := qs[i%len(qs)]
		t0 := time.Now()
		if err := embeddedOnce(ctx, sys, q); err != nil {
			return nil, err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	embeddedP50 := percentile(sortedCopy(lat), 0.50)

	srv := server.New(sys, server.Config{})
	defer srv.Shutdown(ctx)
	ln, err := srv.ListenAndServeFramed("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c, err := dialFramed(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.close()
	lat = lat[:0]
	for i := 0; i < rounds; i++ {
		q := qs[i%len(qs)]
		t0 := time.Now()
		res, err := c.do(q, nil, -1, -1)
		lat = append(lat, int64(time.Since(t0)))
		if why := checkCheap(q, res, err); why != "" {
			return nil, fmt.Errorf("wire probe: %s: %s", q.sql, why)
		}
	}
	framedP50 := percentile(sortedCopy(lat), 0.50)

	hs, hln, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer hs.Shutdown(ctx)
	url := "http://" + hln.Addr().String() + "/query"
	httpRounds := rounds / 4
	start := time.Now()
	for i := 0; i < httpRounds; i++ {
		body, err := json.Marshal(wireRequest(qs[i%len(qs)]))
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != 200 && resp.StatusCode != 206 {
			return nil, fmt.Errorf("wire probe: POST /query: status %d", resp.StatusCode)
		}
	}
	httpNS := float64(time.Since(start)) / float64(httpRounds)
	http.DefaultClient.CloseIdleConnections()

	out := serverCounters(srv)
	out["server.wire_overhead_us"] = float64(framedP50-embeddedP50) / 1e3
	out["server.http_ns_per_query"] = httpNS
	return out, nil
}

// serverCounters reads a server's own plan-cache and admission counters.
func serverCounters(srv *server.Server) map[string]float64 {
	m := srv.SnapshotMetrics()
	return map[string]float64{
		"server.plan_cache_hit_rate": m.PlanCache.HitRate,
		"server.rejected":            float64(m.Rejected),
	}
}

// embeddedOnce is one statement the way the hot-shapes driver sends it.
func embeddedOnce(ctx context.Context, sys *trapp.System, q *queryOp) error {
	qq, err := trapp.ParseQuery(q.sql, sys)
	if err != nil {
		return err
	}
	res, err := sys.ExecuteCtx(ctx, qq, q.opts...)
	if why := checkCheap(q, res, err); why != "" {
		return fmt.Errorf("wire probe: %s: %s", q.sql, why)
	}
	return nil
}
