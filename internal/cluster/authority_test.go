package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// codecs are the two client policies every over-the-wire case runs under.
var codecs = []struct {
	name string
	pol  transport.CodecPolicy
}{
	{transport.CodecBinary, transport.CodecPolicy{}},
	{transport.CodecJSON, transport.CodecPolicy{Advertise: []string{transport.CodecJSON}}},
}

func (e *env) dialCodec(name, addr string, pol transport.CodecPolicy) *remote.Client {
	e.t.Helper()
	c, err := remote.Dial(context.Background(), e.net.DialerCodec(e.id(name), pol), addr)
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(c.Close)
	return c
}

// serveGateway serves gw at addr the way `drbacd -cluster gateway@MAP` does.
func (e *env) serveGateway(addr string, gw *Wallet) {
	e.t.Helper()
	ln, err := e.net.Listen(addr, e.id("gate"))
	if err != nil {
		e.t.Fatal(err)
	}
	srv := remote.ServeOptions(gw, ln, remote.Options{Obs: gw.Obs(), Cluster: gw.Guard()})
	e.t.Cleanup(srv.Close)
}

// A revoke sent to a gateway is answered with a redirect to the owning
// shard, and its assembly cache drops its copy only when the issuer asked:
// a revoke from anyone else must not leave the credential in the gateway's
// revoked set, where no later proof could use it.
func TestAuthorityGatewayRevokeNeedsIssuer(t *testing.T) {
	e := newEnv(t, "gate", "A", "Maria")
	m := mustUniform(t, []string{"shard0"}, []string{"shard1"})
	_, _, gw := e.clusterOf(m)
	d := e.deleg("[Maria -> A.member] A")
	if err := gw.Publish(d); err != nil {
		t.Fatal(err)
	}
	q := wallet.Query{Subject: e.subject("Maria"), Object: e.role("A.member")}
	if _, err := gw.QueryDirect(q); err != nil {
		t.Fatalf("gateway does not prove the published credential: %v", err)
	}

	var rd *remote.RedirectError
	if err := gw.Revoke(d.ID(), e.id("Maria").ID()); !errors.As(err, &rd) {
		t.Fatalf("non-issuer revoke at the gateway = %v, want a redirect", err)
	}
	if gw.Local().IsRevoked(d.ID()) {
		t.Fatal("a non-issuer's revoke entered the gateway's revoked set")
	}
	if _, err := gw.QueryDirect(q); err != nil {
		t.Fatalf("gateway stopped proving a credential nobody with authority revoked: %v", err)
	}

	if err := gw.Revoke(d.ID(), e.id("A").ID()); !errors.As(err, &rd) {
		t.Fatalf("issuer revoke at the gateway = %v, want a redirect", err)
	}
	if !gw.Local().IsRevoked(d.ID()) {
		t.Fatal("the issuer's revoke left the gateway's cached copy in force")
	}
}

// The same over the wire: a peer revoking at a served gateway is refused with
// the redirect, and the gateway keeps serving the credential.
func TestAuthorityServedGatewayRevokeNeedsIssuer(t *testing.T) {
	for _, cc := range codecs {
		t.Run(cc.name, func(t *testing.T) {
			e := newEnv(t, "gate", "A", "Maria")
			m := mustUniform(t, []string{"shard0"}, []string{"shard1"})
			_, _, gw := e.clusterOf(m)
			e.serveGateway("gateway", gw)

			ctx := context.Background()
			c := e.dialCodec("Maria", "gateway", cc.pol)
			d := e.deleg("[Maria -> A.member] A")
			if err := c.Publish(ctx, d, nil, 0); err != nil {
				t.Fatal(err)
			}
			query := func() error {
				_, err := c.QueryDirect(ctx, e.subject("Maria"), e.role("A.member"), nil, 0)
				return err
			}
			if err := query(); err != nil {
				t.Fatalf("served gateway does not prove the credential: %v", err)
			}
			var rd *remote.RedirectError
			if err := c.Revoke(ctx, d.ID()); !errors.As(err, &rd) || rd.Redirect.Shard != m.OwnerOf(d).ID {
				t.Fatalf("non-issuer revoke at the gateway = %v, want a redirect to shard %d", err, m.OwnerOf(d).ID)
			}
			if err := query(); err != nil {
				t.Fatalf("a non-issuer's revoke made the gateway refuse a valid credential: %v", err)
			}
		})
	}
}

// A publish with a negative TTL is malformed: it is refused before the shard
// guard or the wallet sees it, so it can neither slip past the ownership check
// nor be journaled as a permanent delegation on a shard that does not own it.
func TestAuthorityNegativeTTLAtWrongShard(t *testing.T) {
	for _, cc := range codecs {
		t.Run(cc.name, func(t *testing.T) {
			e := newEnv(t, "gate", "A", "Maria", "Bob", "Carol", "Dave")
			m := mustUniform(t, []string{"shard0"}, []string{"shard1"})
			wallets, _, _ := e.clusterOf(m)

			var d *core.Delegation
			for _, name := range []string{"Maria", "Bob", "Carol", "Dave"} {
				if cand := e.deleg("[" + name + " -> A.member] A"); m.OwnerOf(cand).ID == 0 {
					d = cand
					break
				}
			}
			if d == nil {
				t.Fatal("no test subject hashes to shard 0; add candidate names")
			}
			ctx := context.Background()
			c := e.dialCodec("Maria", "shard1", cc.pol)

			err := c.Publish(ctx, d, nil, -time.Second)
			if err == nil || !strings.Contains(err.Error(), "negative ttlSeconds") {
				t.Fatalf("negative-TTL publish at the wrong shard = %v, want the malformed-request refusal", err)
			}
			if wallets[1].Contains(d.ID()) {
				t.Fatal("a negative-TTL publish landed on a shard that does not own its subject")
			}
			var rd *remote.RedirectError
			if err := c.Publish(ctx, d, nil, 0); !errors.As(err, &rd) || rd.Redirect.Shard != 0 {
				t.Fatalf("durable publish at the wrong shard = %v, want a redirect to shard 0", err)
			}
		})
	}
}

// A publish that carries no delegation is malformed: a served gateway refuses
// it, where routing it once dereferenced the missing delegation's subject and
// took the daemon down.
func TestAuthorityPublishWithoutDelegationAtServedGateway(t *testing.T) {
	e := newEnv(t, "gate", "Maria")
	m := mustUniform(t, []string{"shard0"}, []string{"shard1"})
	_, _, gw := e.clusterOf(m)
	e.serveGateway("gateway", gw)
	c := e.dialCodec("Maria", "gateway", codecs[0].pol)
	err := c.Publish(context.Background(), nil, nil, 0)
	if err == nil || !strings.Contains(err.Error(), "malformed request: no delegation") {
		t.Fatalf("publish without a delegation at a served gateway = %v, want the malformed-request refusal", err)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("gateway stopped serving: %v", err)
	}
}
