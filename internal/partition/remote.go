package partition

// RemoteNode speaks the partition wire protocol to a trappserver's
// framed listener: the coordinator side of the protocol. Connections
// are pooled and exclusive per request (the coordinator's concurrency
// comes from scattering across partitions, not pipelining within one),
// lazily dialed, and dropped on any error — the coordinator's retry
// layer re-dials. Subscriptions hold a dedicated connection for the
// stream's life.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/codec"
)

// maxIdleConns bounds the per-node idle connection pool.
const maxIdleConns = 4

// RemoteNode is a partition served by another process. The id must
// match the partition id the remote server was started with (data
// placement happened under that id); Hello verifies the match.
type RemoteNode struct {
	id   string
	addr string

	nextID atomic.Uint32

	mu     sync.Mutex
	closed bool
	idle   []*rconn
	subs   map[net.Conn]struct{}
}

// rconn is one pooled connection with its reusable buffers.
type rconn struct {
	c        net.Conn
	br       *bufio.Reader
	readBuf  []byte
	writeBuf []byte
}

// NewRemoteNode addresses the partition id at addr (host:port of the
// remote framed listener). No connection is made until the first
// operation.
func NewRemoteNode(id, addr string) *RemoteNode {
	return &RemoteNode{id: id, addr: addr, subs: make(map[net.Conn]struct{})}
}

// ID implements Node.
func (n *RemoteNode) ID() string { return n.id }

// Close implements Node: closes pooled and streaming connections.
func (n *RemoteNode) Close() error {
	n.mu.Lock()
	n.closed = true
	idle := n.idle
	n.idle = nil
	subs := n.subs
	n.subs = nil
	n.mu.Unlock()
	for _, rc := range idle {
		rc.c.Close()
	}
	for c := range subs {
		c.Close()
	}
	return nil
}

// get checks a connection out of the pool, dialing if none is idle.
func (n *RemoteNode) get(ctx context.Context) (*rconn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("partition: node %s closed", n.id)
	}
	if len(n.idle) > 0 {
		rc := n.idle[len(n.idle)-1]
		n.idle = n.idle[:len(n.idle)-1]
		n.mu.Unlock()
		return rc, nil
	}
	n.mu.Unlock()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", n.addr)
	if err != nil {
		return nil, fmt.Errorf("partition: dial %s: %w", n.addr, err)
	}
	return &rconn{c: c, br: bufio.NewReaderSize(c, 1<<16)}, nil
}

// put returns a healthy connection to the pool.
func (n *RemoteNode) put(rc *rconn) {
	n.mu.Lock()
	if n.closed || len(n.idle) >= maxIdleConns {
		n.mu.Unlock()
		rc.c.Close()
		return
	}
	n.idle = append(n.idle, rc)
	n.mu.Unlock()
}

// remaining converts the context deadline into the relative nanoseconds
// a request frame carries (0 = none).
func remaining(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	d := time.Until(dl)
	if d <= 0 {
		return 1 // expired; let the remote side fail it canonically
	}
	return int64(d)
}

// roundTrip runs one request/response exchange on a pooled connection.
// build appends the request frame and decode is the response type's
// Decode*Resp. A remote error is a clean node-side failure: the
// connection stays pooled and the error returns beside the decoded value
// (a refresh error carries its outcome). A malformed or mismatched
// response poisons the connection. I/O failures surface ctx.Err() when
// the context was the cause.
func roundTrip[T any](ctx context.Context, n *RemoteNode,
	build func(dst []byte, id uint32) []byte,
	decode func(payload []byte) (uint32, T, error, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	rc, err := n.get(ctx)
	if err != nil {
		return zero, err
	}
	id := n.nextID.Add(1)
	if dl, ok := ctx.Deadline(); ok {
		rc.c.SetDeadline(dl)
	} else {
		rc.c.SetDeadline(time.Time{})
	}
	// Context cancellation (not just deadline) must unblock the read.
	stop := context.AfterFunc(ctx, func() { rc.c.SetDeadline(time.Unix(1, 0)) })
	rc.writeBuf = build(rc.writeBuf[:0], id)
	var payload []byte
	_, ioErr := rc.c.Write(rc.writeBuf)
	if ioErr == nil {
		payload, ioErr = codec.ReadFrame(rc.br, &rc.readBuf, maxRespFrame)
	}
	stop()
	if ioErr != nil {
		rc.c.Close()
		if ce := ctx.Err(); ce != nil {
			return zero, ce
		}
		return zero, fmt.Errorf("partition: %s: %w", n.addr, ioErr)
	}
	rc.c.SetDeadline(time.Time{})
	rid, v, remoteErr, err := decode(payload)
	if err == nil && rid != id {
		// The connection's framing state is lost.
		err = fmt.Errorf("partition: response id mismatch: got %d, want %d", rid, id)
	}
	if err != nil {
		rc.c.Close()
		return zero, err
	}
	n.put(rc)
	return v, remoteErr
}

// Hello implements Node, verifying the remote's identity matches the
// configured partition id.
func (n *RemoteNode) Hello(ctx context.Context) (Hello, error) {
	h, err := roundTrip(ctx, n, AppendHelloReq, DecodeHelloResp)
	if err != nil {
		return Hello{}, err
	}
	if h.ID != n.id {
		return Hello{}, fmt.Errorf("partition: node at %s identifies as %q, expected %q", n.addr, h.ID, n.id)
	}
	return h, nil
}

// State implements Node.
func (n *RemoteNode) State(ctx context.Context, shape string) (aggregate.State, error) {
	return roundTrip(ctx, n, func(dst []byte, id uint32) []byte {
		return AppendStateReq(dst, id, remaining(ctx), shape)
	}, DecodeStateResp)
}

// Inputs implements Node.
func (n *RemoteNode) Inputs(ctx context.Context, shape string) ([]aggregate.Input, int, error) {
	s, err := roundTrip(ctx, n, func(dst []byte, id uint32) []byte {
		return AppendInputsReq(dst, id, remaining(ctx), shape)
	}, DecodeInputsResp)
	return s.inputs, s.n, err
}

// Refresh implements Node. A refresh that failed on the node still
// returns what it installed before failing, as LocalNode.Refresh does.
func (n *RemoteNode) Refresh(ctx context.Context, shape string, keys []int64) (RefreshOutcome, error) {
	return roundTrip(ctx, n, func(dst []byte, id uint32) []byte {
		return AppendRefreshReq(dst, id, remaining(ctx), shape, keys)
	}, DecodeRefreshResp)
}

// Subscribe implements Node: a dedicated connection streams update
// frames until ctx ends, the node closes the stream, or Close tears the
// node down. Updates coalesce so a slow coordinator sees the latest
// state, not a backlog.
func (n *RemoteNode) Subscribe(ctx context.Context, shape string, within float64) (<-chan Update, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", n.addr)
	if err != nil {
		return nil, fmt.Errorf("partition: dial %s: %w", n.addr, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("partition: node %s closed", n.id)
	}
	n.subs[c] = struct{}{}
	n.mu.Unlock()
	release := func() {
		c.Close()
		n.mu.Lock()
		if n.subs != nil {
			delete(n.subs, c)
		}
		n.mu.Unlock()
	}
	id := n.nextID.Add(1)
	req := AppendSubscribeReq(nil, id, shape, within)
	if _, err := c.Write(req); err != nil {
		release()
		return nil, fmt.Errorf("partition: %s: subscribe: %w", n.addr, err)
	}
	stop := context.AfterFunc(ctx, func() { c.Close() })
	ch := make(chan Update, 1)
	go func() {
		defer close(ch)
		defer stop()
		defer release()
		br := bufio.NewReaderSize(c, 1<<16)
		var buf []byte
		for {
			payload, err := codec.ReadFrame(br, &buf, maxRespFrame)
			if err != nil {
				return // stream over: peer closed, ctx canceled, or node down
			}
			rid, u, remoteErr, perr := DecodeSubUpdate(payload)
			if perr != nil || remoteErr != nil || rid != id {
				return
			}
			select {
			case ch <- u:
			default:
				select {
				case <-ch:
				default:
				}
				select {
				case ch <- u:
				default:
				}
			}
		}
	}()
	return ch, nil
}
