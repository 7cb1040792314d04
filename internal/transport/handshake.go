package transport

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"slices"

	"drbac/internal/core"
)

// The handshake authenticates both peers: each side sends a hello carrying
// its public identity and a fresh nonce, then proves key possession by
// signing a transcript that binds both nonces and its side of the
// conversation. Signing the side label prevents reflection attacks; signing
// both nonces prevents replay.

const (
	handshakeContext = "drbac-transport-v1"
	sideClient       = "client"
	sideServer       = "server"
	nonceLen         = 32

	// CodecBinary is the one wire codec (internal/wire's binary framing).
	// The hello still names it, because older builds negotiated between
	// codecs and land on binary only when both hellos offer it.
	CodecBinary = "binary"

	// Rev is the protocol revision this build's hello states: the request
	// rows it serves. Revision 0, a hello without the field, serves the rows
	// below code 22; revision 1 adds query-expand (code 22).
	Rev = 1
)

type helloMsg struct {
	Name  string `json:"name"`
	Key   []byte `json:"key"`
	Nonce []byte `json:"nonce"`
	// Codecs lists the wire codecs the endpoint speaks. This build offers
	// only CodecBinary and refuses a peer whose list lacks it: a build that
	// predates codec negotiation (no list), one configured for JSON only,
	// or one offering only codecs unknown here.
	Codecs []string `json:"codecs,omitempty"`
	// Rev is the protocol revision the endpoint serves (the Rev constant).
	// Builds that predate the field send none and read as 0.
	Rev int `json:"rev,omitempty"`
}

type authMsg struct {
	Sig []byte `json:"sig"`
}

// handshake runs the mutual authentication protocol over fc and returns the
// authenticated connection carrying the peer's verified identity. The codec
// list and the revision ride in the hello and are not part of the signed
// transcript — frames carry no integrity protection after the handshake
// either, and keeping the transcript fixed keeps it identical to older
// builds'.
func handshake(fc frameConn, id *core.Identity, side string) (*authedConn, error) {
	nonce := make([]byte, nonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("handshake nonce: %w", err)
	}
	hello := helloMsg{Name: id.Name(), Key: id.Entity().Key, Nonce: nonce, Codecs: []string{CodecBinary}, Rev: Rev}
	raw, err := json.Marshal(hello)
	if err != nil {
		return nil, err
	}
	if err := fc.sendFrame(raw); err != nil {
		return nil, fmt.Errorf("handshake send hello: %w", err)
	}
	peerRaw, err := fc.recvFrame()
	if err != nil {
		return nil, fmt.Errorf("handshake recv hello: %w", err)
	}
	var peerHello helloMsg
	if err := json.Unmarshal(peerRaw, &peerHello); err != nil {
		return nil, fmt.Errorf("%w: bad hello: %v", ErrHandshake, err)
	}
	if len(peerHello.Key) != ed25519.PublicKeySize || len(peerHello.Nonce) != nonceLen {
		return nil, fmt.Errorf("%w: malformed hello", ErrHandshake)
	}
	peer := core.Entity{Name: peerHello.Name, Key: peerHello.Key}

	// Prove possession of our key over the joint transcript.
	sig := id.SignBytes(transcript(side, nonce, peerHello.Nonce))
	authRaw, err := json.Marshal(authMsg{Sig: sig})
	if err != nil {
		return nil, err
	}
	if err := fc.sendFrame(authRaw); err != nil {
		return nil, fmt.Errorf("handshake send auth: %w", err)
	}
	peerAuthRaw, err := fc.recvFrame()
	if err != nil {
		return nil, fmt.Errorf("handshake recv auth: %w", err)
	}
	var peerAuth authMsg
	if err := json.Unmarshal(peerAuthRaw, &peerAuth); err != nil {
		return nil, fmt.Errorf("%w: bad auth: %v", ErrHandshake, err)
	}
	peerSide := sideServer
	if side == sideServer {
		peerSide = sideClient
	}
	if !core.VerifyBytes(peer, transcript(peerSide, peerHello.Nonce, nonce), peerAuth.Sig) {
		return nil, fmt.Errorf("%w: peer %s failed proof of possession", ErrHandshake, peer)
	}
	if !slices.Contains(peerHello.Codecs, CodecBinary) {
		return nil, fmt.Errorf("%w: peer %s does not speak the required %q wire codec (offered %q)",
			ErrHandshake, peer, CodecBinary, peerHello.Codecs)
	}
	return &authedConn{fc: fc, peer: peer, rev: peerHello.Rev}, nil
}

// handshakeCtx runs the handshake under ctx: cancellation closes the frame
// conn, which unblocks the in-flight frame reads, so a dial never outlives
// its caller's deadline. On any failure the conn is closed before returning.
func handshakeCtx(ctx context.Context, fc frameConn, id *core.Identity, side string) (*authedConn, error) {
	if err := ctx.Err(); err != nil {
		_ = fc.close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	type outcome struct {
		conn *authedConn
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		conn, err := handshake(fc, id, side)
		done <- outcome{conn, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			_ = fc.close()
		}
		return out.conn, out.err
	case <-ctx.Done():
		_ = fc.close()
		<-done // the closed conn fails the pending frame I/O promptly
		return nil, fmt.Errorf("transport: handshake: %w", ctx.Err())
	}
}

// transcript builds the bytes a side signs: context, side label, its own
// nonce, then the peer's nonce.
func transcript(side string, own, peer []byte) []byte {
	var b bytes.Buffer
	b.WriteString(handshakeContext)
	b.WriteByte(0)
	b.WriteString(side)
	b.WriteByte(0)
	b.Write(own)
	b.Write(peer)
	return b.Bytes()
}

// authedConn wraps a frameConn after a successful handshake.
type authedConn struct {
	fc   frameConn
	peer core.Entity
	rev  int // the peer hello's Rev
}

var _ Conn = (*authedConn)(nil)

func (c *authedConn) Send(payload []byte) error { return c.fc.sendFrame(payload) }
func (c *authedConn) Recv() ([]byte, error)     { return c.fc.recvFrame() }
func (c *authedConn) Peer() core.Entity         { return c.peer }
func (c *authedConn) Codec() string             { return CodecBinary }
func (c *authedConn) PeerRev() int              { return c.rev }
func (c *authedConn) Close() error              { return c.fc.close() }
