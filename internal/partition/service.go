package partition

// Service exposes a LocalNode over the server's framed listener: the
// node side of the partition wire protocol. One trappserver port serves
// both client queries (core frames < FrameExtBase) and coordinator
// traffic (partition frames ≥ FrameExtBase).

import (
	"bufio"
	"context"
	"fmt"
	"net"

	"time"
)

// Service dispatches partition frames to a LocalNode. It implements
// server.FramedExtHandler.
type Service struct {
	node *LocalNode
}

// NewService wraps a node for the framed listener.
func NewService(n *LocalNode) *Service {
	return &Service{node: n}
}

// reqCtx derives the per-request context from the server's base context
// and the relative deadline carried on the wire.
func reqCtx(ctx context.Context, deadline int64) (context.Context, context.CancelFunc) {
	if deadline > 0 {
		return context.WithTimeout(ctx, time.Duration(deadline))
	}
	return ctx, func() {}
}

// ServeExtFrame implements server.FramedExtHandler. Unary operations
// return a response frame for the connection's writer; subscribe takes
// the connection over and streams updates until the peer hangs up.
func (s *Service) ServeExtFrame(ctx context.Context, payload []byte, conn net.Conn, bw *bufio.Writer) ([]byte, bool, error) {
	switch payload[0] {
	case frameHelloReq:
		id, err := decodeHelloReq(payload)
		if err != nil {
			return nil, false, err
		}
		h, herr := s.node.Hello(ctx)
		if herr != nil {
			return AppendErrResp(nil, frameHelloResp, id, herr), false, nil
		}
		return AppendHelloResp(nil, id, &h), false, nil

	case frameStateReq:
		id, deadline, shape, err := decodeStateReq(payload)
		if err != nil {
			return nil, false, err
		}
		rctx, cancel := reqCtx(ctx, deadline)
		st, serr := s.node.State(rctx, shape)
		cancel()
		if serr != nil {
			return AppendErrResp(nil, frameStateResp, id, serr), false, nil
		}
		return AppendStateResp(nil, id, &st), false, nil

	case frameInputsReq:
		id, deadline, shape, err := decodeInputsReq(payload)
		if err != nil {
			return nil, false, err
		}
		rctx, cancel := reqCtx(ctx, deadline)
		inputs, tableLen, ierr := s.node.Inputs(rctx, shape)
		cancel()
		if ierr != nil {
			return AppendErrResp(nil, frameInputsResp, id, ierr), false, nil
		}
		return AppendInputsResp(nil, id, inputs, tableLen), false, nil

	case frameRefreshReq:
		id, deadline, shape, keys, err := decodeRefreshReq(payload)
		if err != nil {
			return nil, false, err
		}
		rctx, cancel := reqCtx(ctx, deadline)
		out, rerr := s.node.Refresh(rctx, shape, keys)
		cancel()
		// A failed refresh still reports what it installed: those
		// refreshes were paid for.
		return AppendRefreshResp(nil, id, &out, rerr), false, nil

	case frameSubscribeReq:
		return nil, true, s.serveSubscribe(ctx, payload, conn, bw)

	default:
		return nil, false, fmt.Errorf("partition: unknown frame type 0x%02x", payload[0])
	}
}

// serveSubscribe owns the connection for the life of one subscription
// stream: updates flow out as frameSubUpdate frames; the stream ends
// when the peer closes the connection (detected by the read side going
// live — subscribers send nothing after the request), the local engine
// ends the subscription, or the server shuts down.
func (s *Service) serveSubscribe(ctx context.Context, payload []byte, conn net.Conn, bw *bufio.Writer) error {
	id, shape, within, err := decodeSubscribeReq(payload)
	if err != nil {
		return err
	}
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, serr := s.node.Subscribe(subCtx, shape, within)
	if serr != nil {
		// Terminal error frame; the peer treats the stream as dead.
		out := AppendErrResp(nil, frameSubUpdate, id, serr)
		if _, werr := bw.Write(out); werr != nil {
			return werr
		}
		return bw.Flush()
	}
	// The peer sends nothing after the subscribe request, so any read
	// completion — data or error — means the connection is done.
	go func() {
		var one [1]byte
		_, _ = conn.Read(one[:])
		cancel()
	}()
	var buf []byte
	for u := range ch {
		buf = AppendSubUpdate(buf[:0], id, &u)
		if _, werr := bw.Write(buf); werr != nil {
			return werr
		}
		if werr := bw.Flush(); werr != nil {
			return werr
		}
	}
	return nil
}
