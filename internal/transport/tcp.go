package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"drbac/internal/bufpool"
	"drbac/internal/core"
)

// tcpFrameConn adapts a net.Conn to the frame substrate: every frame is a
// 4-byte big-endian length followed by the payload. Send and Recv are each
// safe for one concurrent caller; the remote layer serializes writes.
type tcpFrameConn struct {
	conn net.Conn

	sendMu sync.Mutex
	// Send-side scratch: header and payload leave in one writev, with no
	// copy into a joined buffer. vec is re-pointed at bufs for every frame
	// because WriteTo consumes the vector it is called on.
	hdr  [4]byte
	bufs [2][]byte
	vec  net.Buffers

	recvMu sync.Mutex
	// br buffers the socket so a frame's header and payload (and whatever
	// a pipelining peer queued behind them) arrive in one read. The
	// handshake reads through it too, so nothing it buffers is lost.
	br *bufio.Reader
}

func newTCPFrameConn(conn net.Conn) *tcpFrameConn {
	return &tcpFrameConn{conn: conn, br: bufio.NewReader(conn)}
}

func (c *tcpFrameConn) sendFrame(p []byte) error {
	if len(p) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(p))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(p)))
	c.bufs[0], c.bufs[1] = c.hdr[:], p
	c.vec = c.bufs[:]
	_, err := c.vec.WriteTo(c.conn)
	c.bufs[1] = nil // a failed write must not pin the caller's frame
	return err
}

// recvFrame reads one frame into a pooled buffer. Ownership passes to the
// caller; returning it via bufpool.Put when the frame is fully consumed
// closes the loop.
func (c *tcpFrameConn) recvFrame() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n)
	}
	payload := bufpool.Get(int(n))[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		bufpool.Put(payload)
		return nil, err
	}
	return payload, nil
}

func (c *tcpFrameConn) close() error { return c.conn.Close() }

// TCPListener accepts authenticated dRBAC connections on a TCP socket.
type TCPListener struct {
	id *core.Identity
	ln net.Listener
}

var _ Listener = (*TCPListener)(nil)

// ListenTCP starts listening on addr (e.g. "127.0.0.1:0") as identity id.
func ListenTCP(addr string, id *core.Identity) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return &TCPListener{id: id, ln: ln}, nil
}

// Accept waits for a connection and completes the server-side handshake.
func (l *TCPListener) Accept() (Conn, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	fc := newTCPFrameConn(conn)
	ac, err := handshake(fc, l.id, sideServer)
	if err != nil {
		_ = conn.Close()
		return nil, acceptFailed(err)
	}
	return ac, nil
}

// Close stops the listener.
func (l *TCPListener) Close() error { return l.ln.Close() }

// Addr returns the bound address.
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// TCPDialer opens authenticated TCP connections as a fixed identity.
type TCPDialer struct {
	// Identity authenticates the dialing side.
	Identity *core.Identity
}

var _ Dialer = (*TCPDialer)(nil)

// Dial connects to addr and completes the client-side handshake. Both the
// TCP connect and the handshake abort when ctx is canceled or its deadline
// passes.
func (d *TCPDialer) Dial(ctx context.Context, addr string) (Conn, error) {
	var nd net.Dialer
	conn, err := nd.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	fc := newTCPFrameConn(conn)
	ac, err := handshakeCtx(ctx, fc, d.Identity, sideClient)
	if err != nil {
		return nil, err
	}
	return ac, nil
}
