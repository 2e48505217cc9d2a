package main

import (
	"bufio"
	"fmt"
	"net"

	"trapp"
	"trapp/internal/server"
)

// framedClient is the benchmark's client for the persistent framed
// protocol: one connection, reused encode and read buffers, requests
// written into a buffered writer and flushed when the burst is complete.
type framedClient struct {
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	id       uint32
	readBuf  []byte
	writeBuf []byte
}

func dialFramed(addr string) (*framedClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial framed %s: %w", addr, err)
	}
	return &framedClient{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}, nil
}

func (c *framedClient) close() { _ = c.conn.Close() }

func wireRequest(q *queryOp) server.QueryRequest {
	req := server.QueryRequest{SQL: q.sql}
	if q.budget > 0 {
		b := server.Float(q.budget)
		req.Budget = &b
	}
	return req
}

// send encodes and queues one request; the caller flushes.
func (c *framedClient) send(q *queryOp) error {
	c.id++
	out, err := server.AppendRequest(c.writeBuf[:0], c.id, wireRequest(q))
	if err != nil {
		return err
	}
	c.writeBuf = out
	_, err = c.bw.Write(out)
	return err
}

// recvPayload reads one response frame.
func (c *framedClient) recvPayload() ([]byte, error) {
	return server.ReadFrame(c.br, &c.readBuf)
}

// decode turns a response frame into the engine's result and error, the
// way a caller of the wire sees them: a request-level error or the
// single statement's typed outcome.
func decode(payload []byte) (uint32, trapp.Result, error) {
	id, resp, ferr := server.DecodeResponse(payload)
	if ferr != nil {
		return id, trapp.Result{}, ferr
	}
	if resp.Error != nil {
		return id, trapp.Result{}, server.DecodeError(resp.Error)
	}
	if len(resp.Results) != 1 {
		return id, trapp.Result{}, fmt.Errorf("framed: %d results for one statement", len(resp.Results))
	}
	return id, resp.Results[0].Result(), server.DecodeError(resp.Results[0].Error)
}

// do is the depth-1 request–response path, with spans around the frame
// encode, the round trip and the decode when rec is set.
func (c *framedClient) do(q *queryOp, rec *recorder, parent, req int32) (trapp.Result, error) {
	sp := rec.begin(spEncode, parent, req)
	err := c.send(q)
	rec.end(sp)
	if err != nil {
		return trapp.Result{}, err
	}
	sp = rec.begin(spRoundTrip, parent, req)
	err = c.bw.Flush()
	var payload []byte
	if err == nil {
		payload, err = c.recvPayload()
	}
	rec.end(sp)
	if err != nil {
		return trapp.Result{}, err
	}
	sp = rec.begin(spDecode, parent, req)
	id, res, err := decode(payload)
	rec.end(sp)
	if err == nil && id != c.id {
		err = fmt.Errorf("framed: response id %d for request %d", id, c.id)
	}
	return res, err
}
