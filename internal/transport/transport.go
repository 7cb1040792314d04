// Package transport provides the authenticated inter-wallet channel that
// stands in for the paper's Switchboard secure communication abstraction
// [8]: framed, bidirectional messaging in which both peers prove possession
// of their claimed PKI identities through an ed25519 challenge-response
// handshake before any payload flows.
//
// Two implementations share the handshake and framing: real TCP sockets
// (production, cmd/drbacd) and an in-memory network (tests, simulation)
// that additionally counts messages and bytes for the experiments.
package transport

import (
	"context"
	"errors"
	"fmt"

	"drbac/internal/core"
)

// MaxFrame bounds a single message; larger frames abort the connection.
const MaxFrame = 16 << 20

// Errors matched by callers.
var (
	// ErrClosed reports use of a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrHandshake reports a failed peer authentication.
	ErrHandshake = errors.New("transport: handshake failed")
)

// acceptFailed marks err, a server-side handshake failure of any kind, as
// ErrHandshake. The cause stays wrapped, but callers must test ErrHandshake
// first: a peer that hangs up mid-handshake on the mem transport makes the
// cause ErrClosed, which does not mean the listener closed.
func acceptFailed(err error) error {
	if errors.Is(err, ErrHandshake) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrHandshake, err)
}

// Conn is an authenticated, framed, bidirectional message channel.
type Conn interface {
	// Send writes one message frame. The frame is fully consumed before
	// Send returns; the caller may recycle its buffer afterwards.
	Send(payload []byte) error
	// Recv reads one message frame, blocking until one arrives. Ownership
	// of the returned buffer passes to the caller.
	Recv() ([]byte, error)
	// Peer returns the authenticated identity of the other side.
	Peer() core.Entity
	// Codec is always CodecBinary, the one codec a handshake lands on.
	Codec() string
	// PeerRev is the protocol revision the peer's hello stated (Rev): 0
	// for a build that predates the field.
	PeerRev() int
	// Close tears the connection down; pending Recv calls fail.
	Close() error
}

// Listener accepts authenticated connections.
type Listener interface {
	// Accept waits for a connection and authenticates it. A connection that
	// fails its handshake — garbage bytes, a bad signature, a dialer that
	// gave up halfway — is reported as an error matching ErrHandshake and
	// leaves the listener usable: callers keep accepting. Any other error
	// means the listener itself is done.
	Accept() (Conn, error)
	Close() error
	// Addr is the address peers dial to reach this listener.
	Addr() string
}

// Dialer opens authenticated connections. Dial honors ctx: cancellation or
// deadline expiry aborts both the underlying connect and the authentication
// handshake.
type Dialer interface {
	Dial(ctx context.Context, addr string) (Conn, error)
}

// frameConn is the unauthenticated substrate both implementations provide:
// a reliable, ordered byte-frame pipe.
type frameConn interface {
	sendFrame([]byte) error
	recvFrame() ([]byte, error)
	close() error
}
