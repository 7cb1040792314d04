package discovery

import (
	"context"
	"errors"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/wallet"
)

// TestOriginLeavesWithItsCopy holds the agent's holder to the local wallet:
// an entry lives exactly as long as the fetched copy it describes, whether
// the copy leaves by a stale sweep or a revocation.
func TestOriginLeavesWithItsCopy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave func(cs *caseStudy, e *env)
		// kept is how many origin entries outlive the removal.
		kept int
	}{
		{"stale sweep", func(cs *caseStudy, e *env) {
			e.clk.Advance(time.Minute) // past the tags' 30 s TTL
			if n := cs.serverWallet.SweepStaleCache(); n != 2 {
				t.Fatalf("stale sweep removed %d copies, want 2", n)
			}
		}, 0},
		{"revocation", func(cs *caseStudy, _ *env) {
			cs.serverWallet.AcceptRevocation(cs.d5.ID())
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer")
			cs := setupCaseStudy(t, e)
			if _, err := cs.agent.Discover(context.Background(), cs.query, Auto, nil); err != nil {
				t.Fatalf("discover: %v", err)
			}
			if n := originLen(cs.agent); n != 2 {
				t.Fatalf("origin holds %d entries after the discovery, want 2 (delegations 2 and 5)", n)
			}
			tc.leave(cs, e)
			if n := originLen(cs.agent); n != tc.kept {
				t.Errorf("origin holds %d entries after the removal, want %d", n, tc.kept)
			}
			for _, id := range cs.agent.held.Held() {
				if !cs.serverWallet.Contains(id) {
					t.Errorf("origin still tracks %s, which the local wallet no longer holds", id.Short())
				}
			}
		})
	}
}

// An entry leaves with a copy whose delegation expires, too.
func TestOriginLeavesWhenItsCopyExpires(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Server")
	home := e.serve("wallet.bigisp", "BigISP")
	expiry := e.clk.Now().Add(10 * time.Second).Format(time.RFC3339)
	if err := home.Publish(e.deleg("[Maria -> BigISP.member] BigISP <expiry:" + expiry + ">")); err != nil {
		t.Fatal(err)
	}
	a, local := e.agent("Server", Config{})
	a.RegisterTag(e.subject("Maria"), e.tag("wallet.bigisp", core.SubjectSearch, core.ObjectNone))
	q := wallet.Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	if _, err := a.Discover(context.Background(), q, Auto, nil); err != nil {
		t.Fatalf("discover: %v", err)
	}
	if n := originLen(a); n != 1 {
		t.Fatalf("origin holds %d entries after the discovery, want 1", n)
	}
	e.clk.Advance(20 * time.Second) // past the expiry, inside the 30 s TTL
	if n := local.SweepExpired(); n != 1 {
		t.Fatalf("expiry sweep removed %d copies, want 1", n)
	}
	if n := originLen(a); n != 0 {
		t.Errorf("origin holds %d entries after the copy expired, want 0", n)
	}
}

func originLen(a *Agent) int { return len(a.held.Held()) }

// A Bridged copy of a third-party credential is followed on every delegation
// it rests on, its support included: once the home revokes a support member,
// the local wallet refuses the proof at once, with no TTL to lapse. The home
// pushes nothing for the credential itself, which stays in its graph.
func TestBridgeFollowsSupport(t *testing.T) {
	e := newEnv(t, "Org", "Mark", "User", "Server")
	home := e.serve("wallet.org", "Org")
	d1 := e.deleg("[Mark -> Org.memberServices] Org")
	d2 := e.deleg("[Org.memberServices -> Org.member'] Org")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		t.Fatal(err)
	}
	d3 := e.deleg("[User -> Org.member] Mark")
	for _, err := range []error{home.Publish(d1), home.Publish(d2), home.Publish(d3, sup)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, local := e.agent("Server", Config{})
	a.RegisterTag(e.subject("User"), e.tag("wallet.org", core.SubjectSearch, core.ObjectNone))
	q := wallet.Query{Subject: e.subject("User"), Object: e.role("Org.member")}
	p, err := a.Discover(context.Background(), q, Auto, nil)
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	cancel, err := a.Bridge(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := home.Revoke(d1.ID(), e.id("Org").ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := local.QueryDirect(q)
		if errors.Is(err, core.ErrNoProof) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("local wallet after the support's revocation: err = %v, want ErrNoProof", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBridgeSubscribeWindow: a revocation that lands at the home between a
// fetch and Bridge is not missed. The home refuses Bridge's subscribe to the
// revoked support member, the agent records the revocation, and its local
// wallet refuses the copy at once, long before the copy's TTL.
func TestBridgeSubscribeWindow(t *testing.T) {
	e := newEnv(t, "Org", "Mark", "User", "Server")
	home := e.serve("wallet.org", "Org")
	d1 := e.deleg("[Mark -> Org.memberServices] Org")
	d2 := e.deleg("[Org.memberServices -> Org.member'] Org")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		t.Fatal(err)
	}
	d3 := e.deleg("[User -> Org.member] Mark")
	for _, err := range []error{home.Publish(d1), home.Publish(d2), home.Publish(d3, sup)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, local := e.agent("Server", Config{})
	a.RegisterTag(e.subject("User"), e.tag("wallet.org", core.SubjectSearch, core.ObjectNone))
	q := wallet.Query{Subject: e.subject("User"), Object: e.role("Org.member")}
	p, err := a.Discover(context.Background(), q, Auto, nil)
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if err := home.Revoke(d1.ID(), e.id("Org").ID()); err != nil {
		t.Fatal(err)
	}
	if cancel, err := a.Bridge(context.Background(), p); !errors.Is(err, core.ErrNoProof) {
		if cancel != nil {
			cancel()
		}
		t.Fatalf("bridge over a revoked support member: err = %v, want ErrNoProof", err)
	}
	if proof, err := local.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("local wallet served %v after the home revoked its support (err = %v)", proof, err)
	}
}
