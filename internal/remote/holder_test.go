package remote

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/wallet"
)

// heldCred is one credential the home serves to the holder: a plain grant,
// one with an expiry, or Table 1's third-party shape resting on a support
// member.
type heldCred struct {
	d       *core.Delegation
	support []*core.Proof
	member  *core.Delegation // the support's first delegation; nil if none
}

// TestHolderInvariant runs seeded sequences of hold (followed or not), stale
// sweep, revoke, expire, support revoke and upstream loss against one holder,
// with Close last. After every step each entry's copy is held by the local
// wallet and no entry is fed through a lost client; after Close the home
// holds no subscription for any delegation the holder followed.
func TestHolderInvariant(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) { holderRun(t, seed) })
	}
}

func holderRun(t *testing.T, seed int64) {
	e := newEnv(t, "Org", "ProxyOp", "User", "Mark")
	_, home := e.serve("home", "Org")
	local := wallet.New(wallet.Config{Owner: e.id("ProxyOp"), Clock: e.clk, Directory: e.dir})
	h := NewHolder(local, nil)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	var creds []heldCred
	followed := make(map[core.DelegationID]bool)
	var up *Client
	grant := func() heldCred {
		n := len(creds)
		var c heldCred
		switch rng.Intn(3) {
		case 0:
			c.d = e.deleg(fmt.Sprintf("[User -> Org.r%d] Org", n))
		case 1:
			expiry := e.clk.Now().Add(time.Duration(10+rng.Intn(50)) * time.Second)
			c.d = e.deleg(fmt.Sprintf("[User -> Org.r%d] Org <expiry:%s>", n, expiry.Format(time.RFC3339)))
		default:
			c.member = e.deleg(fmt.Sprintf("[Mark -> Org.s%d] Org", n))
			d2 := e.deleg(fmt.Sprintf("[Org.s%d -> Org.r%d'] Org", n, n))
			sup, err := core.NewProof(core.ProofStep{Delegation: c.member}, core.ProofStep{Delegation: d2})
			if err != nil {
				t.Fatal(err)
			}
			c.support = []*core.Proof{sup}
			c.d = e.deleg(fmt.Sprintf("[User -> Org.r%d] Mark", n))
			for _, d := range []*core.Delegation{c.member, d2} {
				if err := home.Publish(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := home.Publish(c.d, c.support...); err != nil {
			t.Fatal(err)
		}
		creds = append(creds, c)
		return c
	}
	pick := func() heldCred {
		if len(creds) == 0 || rng.Intn(3) == 0 {
			return grant()
		}
		return creds[rng.Intn(len(creds))]
	}
	// pickHeld prefers a credential the holder holds, so that ending it
	// reaches the holder.
	pickHeld := func() heldCred {
		ids := h.Held()
		if len(ids) == 0 {
			return pick()
		}
		id := ids[rng.Intn(len(ids))]
		for _, c := range creds {
			if c.d.ID() == id {
				return c
			}
		}
		t.Fatalf("the holder holds %s, which no step fetched", id.Short())
		return heldCred{}
	}

	// Pulls outweigh what ends them, so entries and spent follows build up.
	ops := []string{"pull", "pull", "pull", "pull", "hold", "stale sweep", "revoke", "revoke", "expire", "support revoke", "support revoke", "loss"}
	for step := 0; step < 100; step++ {
		op := ops[rng.Intn(len(ops))]
		switch op {
		case "hold":
			c := pick()
			_, _ = h.Hold(ctx, nil, c.d, c.support, "home", 30*time.Second)
		case "pull":
			c := pick()
			if up == nil {
				up = e.dial("home", "ProxyOp")
			}
			if _, err := h.Hold(ctx, up, c.d, c.support, "", 30*time.Second); err == nil {
				followed[c.d.ID()] = true
				if c.member != nil {
					followed[c.member.ID()] = true
				}
			}
		case "stale sweep":
			e.clk.Advance(time.Duration(rng.Intn(20)) * time.Second)
			local.SweepStaleCache()
		case "revoke":
			c := pickHeld()
			_ = home.Revoke(c.d.ID(), c.d.Issuer.ID())
		case "expire":
			e.clk.Advance(time.Duration(rng.Intn(20)) * time.Second)
			local.SweepExpired()
		case "support revoke":
			c := pickHeld()
			if c.member != nil {
				_ = home.Revoke(c.member.ID(), e.id("Org").ID())
			}
		case "loss":
			if up != nil {
				up.Close()
				up = nil
			}
		}
		settle(t, h, local, fmt.Sprintf("step %d (%s)", step, op))
	}
	if len(followed) == 0 {
		t.Fatal("the sequence followed nothing")
	}
	h.Close()
	deadline := time.Now().Add(5 * time.Second)
	for id := range followed {
		for home.Subscribers(id) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("home holds %d subscriptions for %s after Close", home.Subscribers(id), id.Short())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// settle waits for the holder to agree with the local wallet: every entry's
// copy is held there, and no entry is fed through a lost client. Pushes and
// loss land asynchronously, so a step is given a moment to take effect.
func settle(t *testing.T, h *Holder, local *wallet.Wallet, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		bad := ""
		h.mu.Lock()
		for id, e := range h.held {
			if !local.Contains(id) {
				bad = "an entry for " + id.Short() + ", which the local wallet no longer holds"
			}
			if e.via != nil && !e.via.Healthy() {
				bad = "an entry for " + id.Short() + " fed through a lost client"
			}
		}
		h.mu.Unlock()
		if bad == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %s the holder keeps %s", after, bad)
		}
		time.Sleep(time.Millisecond)
	}
}
