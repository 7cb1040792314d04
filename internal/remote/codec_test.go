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

// exchange sends one frame and decodes the one answer, failing the test if
// the connection drops instead.
func exchange(t *testing.T, conn transport.Conn, frame []byte) wire.Envelope {
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
		// What such a follower sends for sync-segments {afterSeq: 5}: code 14
		// with a body of the retired kind 13.
		env := exchange(t, conn, []byte{0xD7, 1, 14, 1, 13, 5})
		var refusal wire.ErrorResp
		if env.Type != wire.TError || env.ID != 1 || wire.DecodeBody(env, &refusal) != nil ||
			refusal.Message != `unknown request type "sync-segments"` {
			t.Fatalf("sync-segments answered %s id %d %+v, want the unknown-request refusal", env.Type, env.ID, refusal)
		}
		syncReq, err := codec.Encode(wire.TSync, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		env = exchange(t, conn, syncReq)
		var snap wire.SyncResp
		if env.Type != wire.TOK || env.ID != 2 || wire.DecodeBody(env, &snap) != nil ||
			snap.Seq != w.Seq() || len(snap.Bundles) != 3 {
			t.Fatalf("sync after the refusal answered %s id %d seq %d with %d bundles, want ok at seq %d with 3",
				env.Type, env.ID, snap.Seq, len(snap.Bundles), w.Seq())
		}
	})
}

// A -dht member released before the gossip probes were reserved still probes
// its coalition every protocol period. An upgraded -dht member must refuse
// each probe as an unknown request type without dropping the connection,
// serve the next ping on it, and keep serving its DHT.
func TestOldMemberGossipProbeRefused(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w, _, _ := e.authorityWallet()
	ln, err := e.net.Listen("wallet.bigisp", e.id("BigISP"))
	if err != nil {
		t.Fatal(err)
	}
	s := ServeOptions(w, ln, Options{DHT: fakeDHT{}})
	t.Cleanup(s.Close)
	conn, err := e.net.Dialer(e.id("Maria")).Dial(context.Background(), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The older member's probes, byte for byte as its encoder framed them:
	// code 20 (gossip-ping) and 21 (gossip-ping-req), a JSON body.
	for _, probe := range []struct {
		typ   wire.MsgType
		id    uint64
		frame string
	}{
		{wire.TGossipPing, 1, "\xd7\x01\x14\x01\x01" + `{"from":"wallet.old:7100","updates":[{"addr":"wallet.old:7100","status":"alive","incarnation":0},{"addr":"wallet.new:7100","status":"suspect","incarnation":3}]}`},
		{wire.TGossipPingReq, 2, "\xd7\x01\x15\x02\x01" + `{"from":"wallet.old:7100","target":"wallet.c:7100"}`},
	} {
		env := exchange(t, conn, []byte(probe.frame))
		var refusal wire.ErrorResp
		if env.Type != wire.TError || env.ID != probe.id || wire.DecodeBody(env, &refusal) != nil ||
			refusal.Message != `unknown request type "`+string(probe.typ)+`"` {
			t.Fatalf("%s answered %s id %d %+v, want the unknown-request refusal", probe.typ, env.Type, env.ID, refusal)
		}
		ping, err := codec.Encode(wire.TPing, 10+probe.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if env := exchange(t, conn, ping); env.Type != wire.TPong || env.ID != 10+probe.id {
			t.Fatalf("ping after the %s refusal answered %s id %d", probe.typ, env.Type, env.ID)
		}
	}
	stats, err := codec.Encode(wire.TStats, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.StatsResp
	if env := exchange(t, conn, stats); env.Type != wire.TOK || wire.DecodeBody(env, &resp) != nil || resp.DHT == nil || resp.DHT.ID != "fake" {
		t.Fatalf("stats after the refusals: %s %+v, want the DHT handler's section", env.Type, resp.DHT)
	}
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
