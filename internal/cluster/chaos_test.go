package cluster

import (
	"runtime"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// TestScatterGatherFailsOverWhenMemberFlaps breaks one member of a
// two-member replica group mid scatter-gather: the in-flight connection
// dies on its next frame and redials are refused, so the scatter must
// fail over to the surviving member and still return the complete answer.
// The member then heals and serves again, and tearing the gateway down
// must not leak the goroutines the failover spawned.
func TestScatterGatherFailsOverWhenMemberFlaps(t *testing.T) {
	e := newEnv(t, "gate", "C", "Maria", "Bob", "Carol", "Dave", "Erin", "Frank")
	m := mustUniform(t, []string{"s0a", "s0b"}, []string{"s1"})

	// Shard 0's replica group: one wallet served at two addresses.
	w0 := wallet.New(wallet.Config{Owner: e.shardOwner(0), Clock: e.clk, Directory: e.dir})
	e.serveWallet("s0a", 0, m, w0)
	e.serveWallet("s0b", 0, m, w0)
	e.serveShard("s1", 1, m)

	plan := transport.NewFaults()
	before := runtime.NumGoroutine()
	gw, err := NewWallet(WalletConfig{
		RouterConfig: RouterConfig{
			Map:    m,
			Dialer: &transport.FaultDialer{Inner: e.net.Dialer(e.id("gate")), Plan: plan},
		},
		Identity: e.id("gate"),
		Clock:    e.clk,
	})
	if err != nil {
		t.Fatal(err)
	}

	members := []string{"Maria", "Bob", "Carol", "Dave", "Erin", "Frank"}
	var first *core.Delegation
	for _, name := range members {
		d := e.deleg("[" + name + " -> C.vip] C")
		if first == nil {
			first = d
		}
		if err := gw.Publish(d); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
	}

	// Flap s0a: the pooled connection breaks on its next frame — i.e. the
	// moment the scatter touches it — and redials are refused.
	plan.Set("s0a", transport.Fault{FailAfterFrames: 1, RefuseDial: true})

	proofs := gw.QueryObject(e.role("C.vip"), nil)
	if len(proofs) != len(members) {
		t.Fatalf("scatter through the flap returned %d proofs, want %d", len(proofs), len(members))
	}

	// The member comes back; the next scatter still answers in full.
	plan.Clear("s0a")
	if proofs := gw.QueryObject(e.role("C.vip"), nil); len(proofs) != len(members) {
		t.Fatalf("scatter after heal returned %d proofs, want %d", len(proofs), len(members))
	}

	// FindOwner scatters too: it must locate delegations through a second
	// flap of the same member.
	plan.Set("s0a", transport.Fault{FailAfterFrames: 1, RefuseDial: true})
	if !gw.Contains(first.ID()) {
		t.Fatal("delegation not locatable through the flap")
	}

	// Teardown returns the goroutine count to its pre-gateway baseline.
	gw.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines = %d after close, want <= %d (leak)", n, before)
	}
}
