package discovery

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// maliciousWallet speaks the wallet wire protocol but answers every query
// with an attacker-supplied proof. It stands in for a compromised or
// hostile home wallet.
func serveMalicious(t *testing.T, net *transport.MemNetwork, addr string, id *core.Identity, forged *core.Proof) {
	t.Helper()
	ln, err := net.Listen(addr, id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	codec := wire.CodecFor(wire.CodecBinary)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					frame, err := conn.Recv()
					if err != nil {
						return
					}
					env, err := codec.Decode(frame)
					if err != nil {
						return
					}
					var resp []byte
					switch env.Type {
					case wire.TQueryDirect:
						resp, err = codec.Encode(wire.TProof, env.ID, wire.ProofResp{Proof: forged})
					case wire.TQuerySubject, wire.TQueryObject, wire.TQueryExpand:
						resp, err = codec.Encode(wire.TProofs, env.ID, wire.ProofsResp{Proofs: []*core.Proof{forged}})
					default:
						resp, err = codec.Encode(wire.TOK, env.ID, nil)
					}
					if err != nil {
						return
					}
					if err := conn.Send(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
}

// A hostile home wallet serving a forged proof (tampered signature) must
// not get its credentials into the trusted local wallet, and discovery must
// conclude no proof exists rather than trusting the forgery.
func TestDiscoveryRejectsForgedProofs(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Mallory", "Server")
	// Mallory forges a delegation claiming to be issued by AirNet: she
	// takes a genuine AirNet delegation shape but cannot sign it, so she
	// re-signs nothing and just tampers the object.
	genuine := e.deleg("[Maria -> AirNet.guest] AirNet")
	forged := *genuine
	forged.Object = core.NewRole(e.id("AirNet").ID(), "access") // tampered
	forgedProof, err := core.NewProof(core.ProofStep{Delegation: &forged})
	if err != nil {
		t.Fatal(err)
	}

	serveMalicious(t, e.net, "wallet.evil", e.ids["Mallory"], forgedProof)

	a, local := e.agent("Server", Config{})
	a.RegisterTag(e.subject("Maria"), e.tag("wallet.evil", core.SubjectSearch, core.ObjectNone))

	_, err = a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("AirNet.access"),
	}, Auto, nil)
	if !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("forged proof was accepted: %v", err)
	}
	if local.Len() != 0 {
		t.Fatalf("forged credentials entered the trusted wallet: %d", local.Len())
	}
}

// A hostile wallet serving a *genuine* credential for the wrong
// relationship cannot satisfy the query either: the local wallet validates
// and assembles independently.
func TestDiscoveryRevalidatesGenuineButIrrelevantProofs(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Mallory", "Server")
	guest := e.deleg("[Maria -> AirNet.guest] AirNet") // real, but not access
	guestProof, err := core.NewProof(core.ProofStep{Delegation: guest})
	if err != nil {
		t.Fatal(err)
	}
	serveMalicious(t, e.net, "wallet.evil", e.ids["Mallory"], guestProof)

	a, local := e.agent("Server", Config{})
	a.RegisterTag(e.subject("Maria"), e.tag("wallet.evil", core.SubjectSearch, core.ObjectNone))
	_, err = a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("AirNet.access"),
	}, Auto, nil)
	if !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("irrelevant credential satisfied the query: %v", err)
	}
	// The genuine guest credential may legitimately be cached; what must
	// not exist is any proof of access.
	if _, err := local.QueryDirect(wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("AirNet.access"),
	}); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("local wallet believes the forgery: %v", err)
	}
}

// A server that answers with protocol garbage must not wedge the client.
func TestClientSurvivesGarbageResponses(t *testing.T) {
	e := newEnv(t, "Mallory", "Server")
	ln, err := e.net.Listen("wallet.garbage", e.ids["Mallory"])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
			if err := conn.Send([]byte("{this is not json")); err != nil {
				return
			}
		}
	}()

	a, _ := e.agent("Server", Config{})
	a.RegisterTag(e.subject("Server"), e.tag("wallet.garbage", core.SubjectSearch, core.ObjectNone))
	done := make(chan error, 1)
	go func() {
		_, err := a.Discover(context.Background(), wallet.Query{
			Subject: e.subject("Server"),
			Object:  e.role("Mallory.x"),
		}, Auto, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrNoProof) {
			t.Fatalf("want ErrNoProof, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("discovery wedged on garbage responses")
	}
}

// A credential the local wallet refuses teaches the agent nothing: a hostile
// home's forged delegation carries an object tag sending AirNet.access to
// the attacker's address, and after the discovery the agent's tag book
// still has no entry for AirNet.access, or the one the application
// registered, so no later search is steered to the attacker.
func TestDiscoveryForgedCredentialTeachesNoTag(t *testing.T) {
	for _, registered := range []bool{false, true} {
		t.Run(fmt.Sprintf("registered=%v", registered), func(t *testing.T) {
			e := newEnv(t, "AirNet", "Maria", "Mallory", "Server")
			genuine := e.deleg("[Maria -> AirNet.guest] AirNet")
			forged := *genuine
			forged.Object = e.role("AirNet.access") // tampered: the signature no longer holds
			evil := e.tag("wallet.evil2", core.SubjectSearch, core.ObjectSearch)
			forged.ObjectTag = &evil
			forgedProof, err := core.NewProof(core.ProofStep{Delegation: &forged})
			if err != nil {
				t.Fatal(err)
			}
			serveMalicious(t, e.net, "wallet.evil", e.ids["Mallory"], forgedProof)

			a, local := e.agent("Server", Config{})
			a.RegisterTag(e.subject("Maria"), e.tag("wallet.evil", core.SubjectSearch, core.ObjectNone))
			access := e.subject("AirNet.access")
			want := e.tag("wallet.airnet", core.SubjectNone, core.ObjectNone)
			if registered {
				a.RegisterTag(access, want)
			}
			if _, err := a.Discover(context.Background(), wallet.Query{
				Subject: e.subject("Maria"),
				Object:  e.role("AirNet.access"),
			}, Auto, nil); !errors.Is(err, core.ErrNoProof) {
				t.Fatalf("discover: %v, want no proof", err)
			}
			if local.Len() != 0 {
				t.Fatalf("forged credential entered the trusted wallet: %d", local.Len())
			}
			a.mu.Lock()
			got, ok := a.tags[access]
			a.mu.Unlock()
			switch {
			case !registered && ok:
				t.Errorf("tag book learned %v from a refused credential", got)
			case registered && got != want.Normalize():
				t.Errorf("registered tag overwritten: %v, want %v", got, want.Normalize())
			}
		})
	}
}
