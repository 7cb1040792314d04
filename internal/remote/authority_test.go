package remote

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/logstore"
	"drbac/internal/subs"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// fakeGuard serves the cluster tier and refuses nothing.
type fakeGuard struct{}

func (fakeGuard) MapResp() (wire.ShardMapResp, error)        { return wire.ShardMapResp{Epoch: 1}, nil }
func (fakeGuard) Check(uint64, *core.Subject) *wire.Redirect { return nil }

// serviceOnly hides every capability of a wallet beyond wallet.Service, the
// way a cluster gateway has no replication side.
type serviceOnly struct{ wallet.Service }

// authorityWallet is a wallet owned by BigISP, journaled to a log store as a
// `-state` daemon's is, holding what the calls below need:
// keep (queried, subscribed), gone (Maria may revoke it) and wallet (BigISP
// proves Maria.wallet with it).
func (e *env) authorityWallet() (w *wallet.Wallet, keep, gone *core.Delegation) {
	e.t.Helper()
	st, err := logstore.Open(e.t.TempDir(), logstore.Options{CompactInterval: -1})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { _ = st.Close() })
	w = wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir, Store: st})
	keep = e.deleg("[Maria -> BigISP.member] BigISP")
	gone = e.deleg("[BigISP -> Maria.guest] Maria")
	for _, d := range []*core.Delegation{keep, gone, e.deleg("[BigISP -> Maria.wallet] Maria")} {
		if err := w.Publish(d); err != nil {
			e.t.Fatal(err)
		}
	}
	return w, keep, gone
}

// authorityCalls sends each request row through the Client method that sends
// it: publish three ways (durable, TTL-cached, epoch-stamped), query-expand a
// hit forward and a miss in reverse. Unsubscribe has
// no method of its own — a subscription's cancel swallows its error — so it is
// called raw.
func (e *env) authorityCalls(keep, gone *core.Delegation) map[wire.MsgType][]func(*Client) error {
	ctx := context.Background()
	pub := e.deleg("[Maria -> BigISP.user] BigISP")
	return map[wire.MsgType][]func(*Client) error{
		wire.TPublish: {
			func(c *Client) error { return c.Publish(ctx, pub, nil, 0) },
			func(c *Client) error { return c.Publish(ctx, pub, nil, 30*time.Second) },
			func(c *Client) error { return c.PublishSharded(ctx, pub, nil, 1) },
		},
		wire.TQueryDirect: {func(c *Client) error {
			_, err := c.QueryDirect(ctx, e.subject("Maria"), e.role("BigISP.member"), nil, 0)
			return err
		}},
		wire.TQuerySubject: {func(c *Client) error {
			_, err := c.QuerySubject(ctx, e.subject("Maria"), nil)
			return err
		}},
		wire.TQueryObject: {func(c *Client) error {
			_, err := c.QueryObject(ctx, e.role("BigISP.member"), nil)
			return err
		}},
		wire.TQueryExpand: {
			func(c *Client) error {
				_, err := c.QueryExpand(ctx, e.subject("Maria"), e.role("BigISP.member"), nil, false)
				return err
			},
			func(c *Client) error {
				_, err := c.QueryExpand(ctx, e.subject("Maria"), e.role("BigISP.staff"), nil, true)
				return err
			},
		},
		wire.TSubscribe: {func(c *Client) error {
			cancel, err := c.Subscribe(ctx, keep.ID(), func(subs.Event) {})
			if err == nil {
				cancel()
			}
			return err
		}},
		wire.TUnsubscribe: {func(c *Client) error {
			return c.call(ctx, wire.TUnsubscribe, wire.SubscribeReq{Delegation: keep.ID()}, nil)
		}},
		wire.TRevoke: {func(c *Client) error { return c.Revoke(ctx, gone.ID()) }},
		wire.TProveRole: {func(c *Client) error {
			_, err := c.ProveRole(ctx, e.role("Maria.wallet"), e.clk.Now())
			return err
		}},
		wire.THas: {func(c *Client) error {
			_, err := c.Has(ctx, keep.ID())
			return err
		}},
		wire.TPing: {func(c *Client) error { return c.Ping(ctx) }},
		wire.TStats: {func(c *Client) error {
			_, err := c.Stats(ctx)
			return err
		}},
		wire.TSync: {func(c *Client) error {
			_, err := c.Sync(ctx)
			return err
		}},
		wire.TSubscribeAll: {func(c *Client) error {
			_, cancel, err := c.SubscribeAll(ctx, func(wire.NotifyPush) {})
			if err == nil {
				cancel()
			}
			return err
		}},
		wire.TTrace: {func(c *Client) error {
			_, err := c.Trace(ctx, "0123456789abcdef")
			return err
		}},
		wire.TShardMap: {func(c *Client) error {
			_, err := c.ShardMap(ctx)
			return err
		}},
	}
}

// TestAuthorityFromTable checks the servers against what wire.Messages
// declares about who may be sent what, row by row:
//   - a read-only follower refuses every Mutates row with ErrReadOnly and
//     serves every other;
//   - a wallet without a replication side or a guard refuses
//     every row outside the wallet tier with the one tier text, serves every
//     row in it, and keeps serving the connection;
//   - a fully equipped server serves every row.
func TestAuthorityFromTable(t *testing.T) {
	equipped := Options{Cluster: fakeGuard{}}
	follower := equipped
	follower.ReadOnly = true
	servers := []struct {
		name       string
		opts       Options
		replicable bool
		// refusal is the text m's requests are refused with, "" for served.
		refusal func(m wire.Message) string
	}{
		{"read-only follower", follower, true, func(m wire.Message) string {
			if m.Mutates {
				return fmt.Sprintf("%s: %v", m.Type, ErrReadOnly)
			}
			return ""
		}},
		{"plain wallet", Options{}, false, func(m wire.Message) string {
			if m.Tier != wire.TierWallet {
				return fmt.Sprintf("%s: wallet does not serve %s requests", m.Type, m.Tier)
			}
			return ""
		}},
		{"fully equipped", equipped, true, func(wire.Message) string { return "" }},
	}
	t.Run("binary", func(t *testing.T) {
		for _, sv := range servers {
			t.Run(sv.name, func(t *testing.T) {
				e := newEnv(t, "BigISP", "Maria")
				w, keep, gone := e.authorityWallet()
				var svc wallet.Service = w
				if !sv.replicable {
					svc = serviceOnly{w}
				}
				ln, err := e.net.Listen("wallet.bigisp", e.id("BigISP"))
				if err != nil {
					t.Fatal(err)
				}
				s := ServeOptions(svc, ln, sv.opts)
				t.Cleanup(s.Close)
				c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "wallet.bigisp")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)

				calls := e.authorityCalls(keep, gone)
				for _, m := range wire.Messages {
					if m.Reply == "" || m.Reserved {
						continue
					}
					if len(calls[m.Type]) == 0 {
						t.Errorf("request %q has no Client call here: add one to authorityCalls", m.Type)
					}
					want := sv.refusal(m)
					for i, call := range calls[m.Type] {
						err := call(c)
						switch {
						case want == "" && err != nil:
							t.Errorf("%s (call %d) refused: %v", m.Type, i, err)
						case want != "" && (err == nil || err.Error() != fmt.Sprintf("remote %s: %s", m.Type, want)):
							t.Errorf("%s (call %d): err = %v, want %q", m.Type, i, err, want)
						}
					}
				}
				if err := c.Ping(context.Background()); err != nil {
					t.Fatalf("connection stopped serving after the refusals: %v", err)
				}
			})
		}
	})
}

// A publish the server cannot read as either a cached copy or a durable
// publish — a negative TTL, or no delegation at all — is refused as malformed
// before the wallet sees it.
func TestAuthorityMalformedPublishRefused(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	seq := w.Seq()
	err := c.Publish(context.Background(), d, nil, -time.Second)
	if err == nil || !strings.Contains(err.Error(), "malformed request: negative ttlSeconds -1") {
		t.Fatalf("negative-TTL publish: err = %v, want the malformed-request refusal", err)
	}
	err = c.Publish(context.Background(), nil, nil, 0)
	if err == nil || !strings.Contains(err.Error(), "malformed request: no delegation") {
		t.Fatalf("publish without a delegation: err = %v, want the malformed-request refusal", err)
	}
	if w.Contains(d.ID()) || w.CachedCount() != 0 || w.Seq() != seq {
		t.Fatalf("a malformed publish reached the wallet: held=%v ttlTracked=%d seq=%d, want false 0 %d",
			w.Contains(d.ID()), w.CachedCount(), w.Seq(), seq)
	}
}
