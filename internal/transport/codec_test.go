package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
)

// handDriven runs one side of the handshake by hand over fc as id, offering
// codecs and stating rev in its hello (nil and 0 leave the fields out, as
// builds that predate them do). It stops after both proofs of possession are
// exchanged: whether the connection is then kept is the other side's codec
// decision.
func handDriven(fc frameConn, id *core.Identity, side string, codecs []string, rev int) error {
	nonce := make([]byte, nonceLen)
	hello, _ := json.Marshal(helloMsg{Name: id.Name(), Key: id.Entity().Key, Nonce: nonce, Codecs: codecs, Rev: rev})
	if err := fc.sendFrame(hello); err != nil {
		return err
	}
	peerRaw, err := fc.recvFrame()
	if err != nil {
		return err
	}
	var peerHello helloMsg
	if err := json.Unmarshal(peerRaw, &peerHello); err != nil {
		return err
	}
	auth, _ := json.Marshal(authMsg{Sig: id.SignBytes(transcript(side, nonce, peerHello.Nonce))})
	if err := fc.sendFrame(auth); err != nil {
		return err
	}
	_, err = fc.recvFrame()
	return err
}

// helloTransport is one transport the hello table runs over.
type helloTransport struct {
	name string
	// listen opens a listener as srv and returns it, a regular dialer, and
	// a function that connects a new client end, to be driven by hand, to
	// the listener.
	listen func(t *testing.T, srv *core.Identity) (Listener, Dialer, func() frameConn)
}

var helloTransports = []helloTransport{
	{"tcp", func(t *testing.T, srv *core.Identity) (Listener, Dialer, func() frameConn) {
		ln, err := ListenTCP("127.0.0.1:0", srv)
		if err != nil {
			t.Fatal(err)
		}
		return ln, &TCPDialer{Identity: mkIdentity(t, "client", 61)}, func() frameConn {
			raw, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return newTCPFrameConn(raw)
		}
	}},
	{"mem", func(t *testing.T, srv *core.Identity) (Listener, Dialer, func() frameConn) {
		n := NewMemNetwork()
		ln, err := n.Listen("w", srv)
		if err != nil {
			t.Fatal(err)
		}
		return ln, n.Dialer(mkIdentity(t, "client", 61)), func() frameConn {
			client, server := newMemPair(n)
			go func() { ln.(*memListener).pending <- server }()
			return client
		}
	}},
}

// TestNegotiateCodec: a hello that offers binary anywhere in its list lands
// on binary, whatever else it offers; one that does not — no list at all (a
// build that predates negotiation), JSON only, or only codecs this build does
// not know — fails Accept with ErrHandshake naming the binary codec, and the
// listener goes on accepting, over either transport.
func TestNegotiateCodec(t *testing.T) {
	cases := []struct {
		name   string
		codecs []string
		served bool
	}{
		{"binary,json", []string{"binary", "json"}, true},
		{"json,binary", []string{"json", "binary"}, true},
		{"binary", []string{"binary"}, true},
		{"future,binary", []string{"future", "binary"}, true},
		{"absent", nil, false},
		{"json", []string{"json"}, false},
		{"future", []string{"future"}, false},
	}
	for _, tr := range helloTransports {
		t.Run(tr.name, func(t *testing.T) {
			ln, dialer, connect := tr.listen(t, mkIdentity(t, "server", 60))
			defer ln.Close()
			peer := mkIdentity(t, "peer", 62)
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					type result struct {
						conn Conn
						err  error
					}
					accepted := make(chan result, 1)
					go func() {
						conn, err := ln.Accept()
						accepted <- result{conn, err}
					}()
					fc := connect()
					defer fc.close()
					if err := handDriven(fc, peer, sideClient, c.codecs, 0); err != nil {
						t.Fatalf("hand-driven client: %v", err)
					}
					var res result
					select {
					case res = <-accepted:
					case <-time.After(2 * time.Second):
						t.Fatal("Accept wedged")
					}
					switch {
					case c.served && res.err != nil:
						t.Fatalf("Accept refused: %v", res.err)
					case c.served:
						defer res.conn.Close()
						if got := res.conn.PeerRev(); got != 0 {
							t.Fatalf("a hello without a revision reads as revision %d, want 0", got)
						}
					case !errors.Is(res.err, ErrHandshake) || !strings.Contains(res.err.Error(), `"binary"`):
						t.Fatalf("Accept error = %v, want ErrHandshake naming the binary codec", res.err)
					}

					// The listener still accepts a regular dialer.
					go func() {
						conn, err := ln.Accept()
						if err == nil {
							defer conn.Close()
						}
						accepted <- result{conn, err}
					}()
					conn, err := dialer.Dial(context.Background(), ln.Addr())
					if err != nil {
						t.Fatalf("dial after the hello: %v", err)
					}
					conn.Close()
					if res := <-accepted; res.err != nil {
						t.Fatalf("Accept after the hello: %v", res.err)
					}
				})
			}
		})
	}
}

// dialPair connects a client and server over a fresh mem network and returns
// both authenticated ends.
func dialPair(t *testing.T) (server, client Conn) {
	t.Helper()
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 50)
	cli := mkIdentity(t, "client", 51)
	ln, err := n.Listen("w", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	connCh := make(chan Conn, 1)
	errCh := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		connCh <- c
	}()
	c, err := n.Dialer(cli).Dial(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	select {
	case s := <-connCh:
		t.Cleanup(func() { s.Close() })
		return s, c
	case err := <-errCh:
		t.Fatalf("accept: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("accept timed out")
	}
	return nil, nil
}

// Both ends of a connection between two builds of this code report binary
// and read the other's revision, this build's Rev. The subtest keeps the name
// of the one pairing left when the -wire modes retired: both ends at the
// default, which was auto.
func TestHandshakeNegotiationAgreesBothEnds(t *testing.T) {
	t.Run("auto-auto", func(t *testing.T) {
		s, c := dialPair(t)
		if s.Codec() != CodecBinary || c.Codec() != CodecBinary {
			t.Errorf("codec server=%q client=%q, want binary on both", s.Codec(), c.Codec())
		}
		if s.PeerRev() != Rev || c.PeerRev() != Rev {
			t.Errorf("peer revision server=%d client=%d, want %d on both", s.PeerRev(), c.PeerRev(), Rev)
		}
	})
}

// TestHelloRevision: the revision a peer's hello states is what the
// connection reports, whichever side the peer is. A hello without one — every
// build before the field — completes the handshake either way and reads as
// revision 0; one stating this build's Rev, which names query-expand's code
// 22, reads 1.
func TestHelloRevision(t *testing.T) {
	if Rev != 1 {
		t.Fatalf("Rev = %d, want 1 (query-expand, code 22)", Rev)
	}
	for _, rev := range []int{0, Rev} {
		t.Run(fmt.Sprintf("peer-client-rev%d", rev), func(t *testing.T) {
			n := NewMemNetwork()
			ln, err := n.Listen("w", mkIdentity(t, "server", 70))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			client, server := newMemPair(n)
			go func() { ln.(*memListener).pending <- server }()
			defer client.close()
			peer := mkIdentity(t, "peer", 71)
			go func() { _ = handDriven(client, peer, sideClient, []string{CodecBinary}, rev) }()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatalf("Accept: %v", err)
			}
			defer conn.Close()
			if got := conn.PeerRev(); got != rev {
				t.Errorf("server end reads peer revision %d, want %d", got, rev)
			}
		})
		t.Run(fmt.Sprintf("peer-server-rev%d", rev), func(t *testing.T) {
			client, server := newMemPair(NewMemNetwork())
			defer server.close()
			peer := mkIdentity(t, "server", 72)
			go func() { _ = handDriven(server, peer, sideServer, []string{CodecBinary}, rev) }()
			conn, err := handshakeCtx(context.Background(), client, mkIdentity(t, "client", 73), sideClient)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if got := conn.PeerRev(); got != rev {
				t.Errorf("client end reads peer revision %d, want %d", got, rev)
			}
		})
	}
}

// A dialer must refuse a server whose hello offers only JSON with a
// handshake error that names the codec, not hang or silently downgrade.
func TestHandshakeRequireBinaryFailsAgainstJSONPeer(t *testing.T) {
	client, server := newMemPair(NewMemNetwork())
	jsonOnly := mkIdentity(t, "server", 52)
	go func() { _ = handDriven(server, jsonOnly, sideServer, []string{"json"}, 0) }()
	_, err := handshakeCtx(context.Background(), client, mkIdentity(t, "client", 53), sideClient)
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("dial error = %v, want ErrHandshake", err)
	}
	if !strings.Contains(err.Error(), `"binary"`) {
		t.Errorf("error does not name the required codec: %v", err)
	}
}

// Frames at exactly MaxFrame pass over a binary connection; one byte more is
// refused by the sender before anything hits the wire.
func TestMaxFrameBoundaryOnBinaryConnection(t *testing.T) {
	s, c := dialPair(t)
	big := make([]byte, MaxFrame)
	big[0], big[len(big)-1] = 0xD7, 0xEE
	done := make(chan []byte, 1)
	go func() {
		got, err := s.Recv()
		if err != nil {
			done <- nil
			return
		}
		done <- got
	}()
	if err := c.Send(big); err != nil {
		t.Fatalf("send of MaxFrame bytes failed: %v", err)
	}
	select {
	case got := <-done:
		if len(got) != MaxFrame || got[0] != 0xD7 || got[len(got)-1] != 0xEE {
			t.Fatalf("MaxFrame payload corrupted: len=%d", len(got))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MaxFrame payload never arrived")
	}
	if err := c.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("frame one byte over MaxFrame accepted")
	}
}
