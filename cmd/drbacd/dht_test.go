package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// A `-dht -cluster gateway` daemon, wired as run wires one, in front of two
// shard members. An authenticated stranger sends it the frame a build that
// still ran gossip took for a liveness verdict: a gossip-ping declaring the
// shard member that owns a delegation dead at the largest incarnation, with
// a forged sender address. The daemon must refuse it as an unknown request,
// keep the member's breaker closed, and route the next publish to it.
func TestForgedGossipPingCannotCutGatewayOffShard(t *testing.T) {
	ctx := context.Background()
	newID := func(name string) *core.Identity {
		id, err := core.NewIdentity(name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	var addrs [2]string
	var lns [2]transport.Listener
	for i := range lns {
		ln, err := transport.ListenTCP("127.0.0.1:0", newID("Shard"))
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr()
	}
	m, err := cluster.Uniform([][]string{{addrs[0]}, {addrs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range lns {
		node, err := cluster.NewNode(i, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer remote.ServeOptions(wallet.New(wallet.Config{}), ln, remote.Options{Cluster: node}).Close()
	}
	mapPath := filepath.Join(t.TempDir(), "map.json")
	writeMap(t, mapPath, m, time.Now())

	o := obs.New(nil, obs.NewRegistry())
	gwID := newID("Gateway")
	gwLn, err := transport.ListenTCP("127.0.0.1:0", gwID)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := startDHT(gwID, gwLn.Addr(), "", "", o)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.close()
	gw, _, err := newClusterGateway(mapPath, gwID, o, rt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	defer remote.ServeOptions(gw, gwLn, remote.Options{Obs: o, Role: "gateway", Cluster: gw.Guard(), DHT: rt.node}).Close()

	org := newID("Org")
	d := issueBy(t, org, "[Org.member -> Org.reader] Org")
	member := m.OwnerOf(d).Addrs[0]

	// The forged frame, byte for byte as a gossip-running build encoded
	// gossip-ping: binary envelope, code 20, id 1, a JSON body.
	stranger, err := (&transport.TCPDialer{Identity: newID("Mallory")}).Dial(ctx, gwLn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	frame := append([]byte{0xD7, 1, 20, 1, 1},
		`{"from":"10.0.0.99:22","updates":[{"addr":"`+member+`","status":"dead","incarnation":18446744073709551615}]}`...)
	if err := stranger.Send(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := stranger.Recv()
	if err != nil {
		t.Fatalf("connection dropped after the forged frame: %v", err)
	}
	env, err := (wire.Codec{}).Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	var refusal wire.ErrorResp
	if env.Type != wire.TError || wire.DecodeBody(env, &refusal) != nil ||
		refusal.Message != `unknown request type "gossip-ping"` {
		t.Errorf("forged gossip-ping answered %s %s, want the unknown-request refusal", env.Type, env.Body)
	}

	if h := gw.Router().Peers().HealthOf(member); h.State != peer.StateClosed {
		t.Errorf("gateway pool holds shard member %s as %+v after one forged frame, want closed", member, h)
	}
	c, err := remote.Dial(ctx, &transport.TCPDialer{Identity: newID("Maria")}, gwLn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish(ctx, d, nil, 0); err != nil {
		t.Errorf("publish routed to shard member %s after the forged frame: %v", member, err)
	}
}
