package remote

import (
	"context"
	"testing"
	"time"

	"drbac/internal/transport"
	"drbac/internal/wire"
)

// recvWithin waits for one frame, failing the test if nothing happens.
func recvWithin(t *testing.T, conn transport.Conn, d time.Duration) ([]byte, error) {
	t.Helper()
	type res struct {
		frame []byte
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		f, err := conn.Recv()
		ch <- res{f, err}
	}()
	select {
	case r := <-ch:
		return r.frame, r.err
	case <-time.After(d):
		t.Fatal("recv timed out")
		return nil, nil
	}
}

// A frame in the wrong codec mid-stream — here raw JSON on a connection that
// negotiated binary — is a protocol violation: the server answers nothing and
// drops the connection rather than guessing at the framing.
func TestMidStreamJSONFrameOnBinaryConnectionDropsIt(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	conn, err := e.net.DialerCodec(e.id("Maria"), transport.CodecPolicy{}).
		Dial(context.Background(), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Codec() != transport.CodecBinary {
		t.Fatalf("negotiated %q, want binary", conn.Codec())
	}
	bin := wire.CodecFor(transport.CodecBinary)

	// Prove the connection works first: a binary ping round-trips.
	frame, err := bin.Encode(wire.TPing, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(frame); err != nil {
		t.Fatal(err)
	}
	respFrame, err := recvWithin(t, conn, 2*time.Second)
	if err != nil {
		t.Fatalf("binary ping got no response: %v", err)
	}
	env, err := bin.Decode(respFrame)
	if err != nil || env.Type != wire.TPong {
		t.Fatalf("ping response = %+v, %v", env, err)
	}

	// Now a JSON envelope, valid in itself but wrong for this connection.
	jsonFrame, err := wire.CodecFor(transport.CodecJSON).Encode(wire.TPing, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(jsonFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(t, conn, 2*time.Second); err == nil {
		t.Fatal("server kept the connection after a wrong-codec frame")
	}
}

// The mirror case: a binary-magic frame on a JSON-negotiated connection is
// equally fatal.
func TestMidStreamBinaryFrameOnJSONConnectionDropsIt(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	conn, err := e.net.DialerCodec(e.id("Maria"),
		transport.CodecPolicy{Advertise: []string{transport.CodecJSON}}).
		Dial(context.Background(), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Codec() != transport.CodecJSON {
		t.Fatalf("negotiated %q, want json", conn.Codec())
	}
	binFrame, err := wire.CodecFor(transport.CodecBinary).Encode(wire.TPing, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(binFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(t, conn, 2*time.Second); err == nil {
		t.Fatal("server kept the connection after a binary frame on a JSON connection")
	}
}

// A follower released before sync-segments was reserved still opens every
// bootstrap with it, then falls back to sync on the same connection when it
// is refused. A server — even one journaled to a log store — must refuse the
// request as an unknown type without dropping the connection, on either
// codec, and serve the sync that follows.
func TestOldFollowerSyncSegmentsRefusedThenSynced(t *testing.T) {
	// What such a follower sends for sync-segments {afterSeq: 5}: on binary,
	// code 14 with a body of the retired kind 13.
	oldRequest := map[string][]byte{
		transport.CodecBinary: {0xD7, 1, 14, 1, 13, 5},
		transport.CodecJSON:   []byte(`{"type":"sync-segments","id":1,"body":{"afterSeq":5}}`),
	}
	for _, cc := range codecPolicies {
		t.Run(cc.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Maria")
			w, _, _ := e.authorityWallet()
			ln, err := e.net.Listen("wallet.bigisp", e.id("BigISP"))
			if err != nil {
				t.Fatal(err)
			}
			s := Serve(w, ln)
			t.Cleanup(s.Close)
			conn, err := e.net.DialerCodec(e.id("Maria"), cc.pol).Dial(context.Background(), "wallet.bigisp")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			codec := wire.CodecFor(conn.Codec())
			exchange := func(frame []byte) wire.Envelope {
				t.Helper()
				if err := conn.Send(frame); err != nil {
					t.Fatal(err)
				}
				resp, err := recvWithin(t, conn, 2*time.Second)
				if err != nil {
					t.Fatalf("connection dropped: %v", err)
				}
				env, err := codec.Decode(resp)
				if err != nil {
					t.Fatal(err)
				}
				return env
			}

			env := exchange(oldRequest[cc.name])
			var refusal wire.ErrorResp
			if env.Type != wire.TError || env.ID != 1 || wire.DecodeBody(env, &refusal) != nil ||
				refusal.Message != `unknown request type "sync-segments"` {
				t.Fatalf("sync-segments answered %s id %d %+v, want the unknown-request refusal", env.Type, env.ID, refusal)
			}
			syncReq, err := codec.Encode(wire.TSync, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			env = exchange(syncReq)
			var snap wire.SyncResp
			if env.Type != wire.TOK || env.ID != 2 || wire.DecodeBody(env, &snap) != nil ||
				snap.Seq != w.Seq() || len(snap.Bundles) != 3 {
				t.Fatalf("sync after the refusal answered %s id %d seq %d with %d bundles, want ok at seq %d with 3",
					env.Type, env.ID, snap.Seq, len(snap.Bundles), w.Seq())
			}
		})
	}
}

// A client dialing a cluster member older than the reservation of
// cluster-hello still receives that push (ID 0) as the connection's first
// frame. It has no reader any more; the client must decode it on either
// codec, drop it as a reply nobody waits for, and keep serving calls.
func TestClientDropsClusterHelloFromOlderMember(t *testing.T) {
	for _, tc := range []struct {
		codec string
		pol   transport.CodecPolicy
	}{
		{transport.CodecBinary, transport.CodecPolicy{}},
		{transport.CodecJSON, transport.CodecPolicy{Advertise: []string{transport.CodecJSON}}},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Maria")
			ln, err := e.net.Listen("old.member", e.id("BigISP"))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			// The hand-rolled older member: hello first, then answer pings.
			served := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					served <- err
					return
				}
				defer conn.Close()
				codec := wire.CodecFor(conn.Codec())
				hello, err := codec.Encode(wire.TClusterHello, 0, wire.ShardMapResp{Epoch: 7, Shard: 2})
				if err == nil {
					err = conn.Send(hello)
				}
				for err == nil {
					var frame []byte
					if frame, err = conn.Recv(); err != nil {
						err = nil // the client hung up: done
						break
					}
					var env wire.Envelope
					if env, err = codec.Decode(frame); err == nil {
						var pong []byte
						if pong, err = codec.Encode(wire.TPong, env.ID, nil); err == nil {
							err = conn.Send(pong)
						}
					}
				}
				served <- err
			}()

			c, err := Dial(context.Background(), e.net.DialerCodec(e.id("Maria"), tc.pol), "old.member")
			if err != nil {
				t.Fatal(err)
			}
			if c.WireCodec() != tc.codec {
				t.Fatalf("negotiated %q, want %q", c.WireCodec(), tc.codec)
			}
			for i := 0; i < 3; i++ {
				if err := c.Ping(context.Background()); err != nil {
					t.Fatalf("ping %d after a cluster-hello push: %v", i, err)
				}
			}
			if !c.Healthy() {
				t.Fatal("client marked the connection broken after a cluster-hello push")
			}
			c.Close()
			if err := <-served; err != nil {
				t.Fatalf("hand-rolled member: %v", err)
			}
		})
	}
}
