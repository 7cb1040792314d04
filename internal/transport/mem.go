package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
)

// MemNetwork is an in-process network of authenticated connections used by
// tests, examples, and the simulation harness. It runs the same handshake
// and framing as TCP and additionally accounts messages and bytes so the
// revocation and discovery experiments can report network cost.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener

	// Latency, if nonzero, delays every frame delivery (one-way).
	Latency time.Duration

	messages atomic.Int64
	bytes    atomic.Int64
}

// NetStats is a snapshot of network-wide traffic counters.
type NetStats struct {
	// Messages counts frames delivered (handshake frames included).
	Messages int64
	// Bytes counts frame payload bytes delivered.
	Bytes int64
}

// NewMemNetwork returns an empty in-process network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

// Stats returns the current traffic counters.
func (n *MemNetwork) Stats() NetStats {
	return NetStats{Messages: n.messages.Load(), Bytes: n.bytes.Load()}
}

// ResetStats zeroes the traffic counters.
func (n *MemNetwork) ResetStats() {
	n.messages.Store(0)
	n.bytes.Store(0)
}

func (n *MemNetwork) account(frame []byte) {
	n.messages.Add(1)
	n.bytes.Add(int64(len(frame)))
}

// Listen registers a listener at addr operating as identity id with the
// automatic codec policy.
func (n *MemNetwork) Listen(addr string, id *core.Identity) (Listener, error) {
	return n.ListenCodec(addr, id, CodecPolicy{})
}

// ListenCodec is Listen with an explicit wire-codec policy — how tests build
// mixed-codec coalitions on one in-memory network.
func (n *MemNetwork) ListenCodec(addr string, id *core.Identity, pol CodecPolicy) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("mem listen %s: address in use", addr)
	}
	l := &memListener{
		net:     n,
		id:      id,
		pol:     pol,
		addr:    addr,
		pending: make(chan *memFrameConn),
		done:    make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dialer returns a Dialer that connects within this network as identity id
// with the automatic codec policy.
func (n *MemNetwork) Dialer(id *core.Identity) Dialer {
	return n.DialerCodec(id, CodecPolicy{})
}

// DialerCodec is Dialer with an explicit wire-codec policy.
func (n *MemNetwork) DialerCodec(id *core.Identity, pol CodecPolicy) Dialer {
	return &memDialer{net: n, id: id, pol: pol}
}

type memDialer struct {
	net *MemNetwork
	id  *core.Identity
	pol CodecPolicy
}

var _ Dialer = (*memDialer)(nil)

func (d *memDialer) Dial(ctx context.Context, addr string) (Conn, error) {
	d.net.mu.Lock()
	l := d.net.listeners[addr]
	d.net.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("mem dial %s: connection refused", addr)
	}
	clientEnd, serverEnd := newMemPair(d.net)
	select {
	case l.pending <- serverEnd:
	case <-l.done:
		return nil, fmt.Errorf("mem dial %s: %w", addr, ErrClosed)
	case <-ctx.Done():
		_ = clientEnd.close()
		return nil, fmt.Errorf("mem dial %s: %w", addr, ctx.Err())
	}
	ac, err := handshakeCtx(ctx, clientEnd, d.id, sideClient, d.pol)
	if err != nil {
		return nil, err
	}
	return ac, nil
}

type memListener struct {
	net     *MemNetwork
	id      *core.Identity
	pol     CodecPolicy
	addr    string
	pending chan *memFrameConn
	done    chan struct{}
	once    sync.Once
}

var _ Listener = (*memListener)(nil)

func (l *memListener) Accept() (Conn, error) {
	select {
	case fc := <-l.pending:
		ac, err := handshake(fc, l.id, sideServer, l.pol)
		if err != nil {
			_ = fc.close()
			return nil, acceptFailed(err)
		}
		return ac, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// memFrameConn is one end of an in-process frame pipe.
type memFrameConn struct {
	net  *MemNetwork
	in   <-chan []byte
	out  chan<- []byte
	done chan struct{}
	once *sync.Once
}

// newMemPair builds a connected pair of frame conns. The per-direction
// buffer decouples asynchronous notification pushes from the request/
// response rhythm; a full buffer applies backpressure rather than dropping.
func newMemPair(n *MemNetwork) (a, b *memFrameConn) {
	const mailbox = 256
	ab := make(chan []byte, mailbox)
	ba := make(chan []byte, mailbox)
	done := make(chan struct{})
	var once sync.Once
	a = &memFrameConn{net: n, in: ba, out: ab, done: done, once: &once}
	b = &memFrameConn{net: n, in: ab, out: ba, done: done, once: &once}
	return a, b
}

func (c *memFrameConn) sendFrame(p []byte) error {
	if len(p) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(p))
	}
	// Copy into a pooled buffer: the sender is free to recycle p the moment
	// sendFrame returns, and the receiver owns (and may re-pool) cp.
	cp := bufpool.Get(len(p))[:len(p)]
	copy(cp, p)
	if c.net.Latency > 0 {
		time.Sleep(c.net.Latency)
	}
	select {
	case c.out <- cp:
		c.net.account(cp)
		return nil
	case <-c.done:
		return ErrClosed
	}
}

func (c *memFrameConn) recvFrame() ([]byte, error) {
	select {
	case p := <-c.in:
		return p, nil
	case <-c.done:
		// Drain anything already delivered before the close.
		select {
		case p := <-c.in:
			return p, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *memFrameConn) close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
