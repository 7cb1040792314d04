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

// A JSON envelope mid-stream — what a build that still spoke the retired JSON
// codec framed — is a protocol violation: the server answers nothing and
// drops the connection rather than guessing at the framing.
func TestMidStreamJSONFrameOnBinaryConnectionDropsIt(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	conn, err := e.net.Dialer(e.id("Maria")).Dial(context.Background(), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Prove the connection works first: a binary ping round-trips.
	frame, err := codec.Encode(wire.TPing, 1, nil)
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
	env, err := codec.Decode(respFrame)
	if err != nil || env.Type != wire.TPong {
		t.Fatalf("ping response = %+v, %v", env, err)
	}

	// Now a ping as the retired JSON codec framed it.
	if err := conn.Send([]byte(`{"type":"ping","id":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(t, conn, 2*time.Second); err == nil {
		t.Fatal("server kept the connection after a JSON envelope")
	}
}

// A follower released before sync-segments was reserved still opens every
// bootstrap with it, then falls back to sync on the same connection when it
// is refused. A server — even one journaled to a log store — must refuse the
// request as an unknown type without dropping the connection, and serve the
// sync that follows.
func TestOldFollowerSyncSegmentsRefusedThenSynced(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		e := newEnv(t, "BigISP", "Maria")
		w, _, _ := e.authorityWallet()
		ln, err := e.net.Listen("wallet.bigisp", e.id("BigISP"))
		if err != nil {
			t.Fatal(err)
		}
		s := Serve(w, ln)
		t.Cleanup(s.Close)
		conn, err := e.net.Dialer(e.id("Maria")).Dial(context.Background(), "wallet.bigisp")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
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

		// What such a follower sends for sync-segments {afterSeq: 5}: code 14
		// with a body of the retired kind 13.
		env := exchange([]byte{0xD7, 1, 14, 1, 13, 5})
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

// A client dialing a cluster member older than the reservation of
// cluster-hello still receives that push (ID 0) as the connection's first
// frame. It has no reader any more; the client must decode it, drop it as a
// reply nobody waits for, and keep serving calls.
func TestClientDropsClusterHelloFromOlderMember(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
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

		c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "old.member")
		if err != nil {
			t.Fatal(err)
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
