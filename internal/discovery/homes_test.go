package discovery

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/peer"
	"drbac/internal/subs"
	"drbac/internal/wallet"
)

// fakeHomes places nodes from a map and records how Home was called.
type fakeHomes struct {
	at     map[core.Subject][]string
	failOn map[core.Subject]error

	mu      sync.Mutex
	calls   int
	sawDone bool // some call arrived with a context already done
}

func (f *fakeHomes) Home(ctx context.Context, node core.Subject) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if err := ctx.Err(); err != nil {
		f.sawDone = true
		return nil, err
	}
	if err := f.failOn[node]; err != nil {
		return nil, err
	}
	return f.at[node], nil
}

func (f *fakeHomes) seen() (calls int, sawDone bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.sawDone
}

// placement is one Homes implementation set up for TestPlacementOrder.
type placement struct {
	homes Homes
	// peers is the pool the agent shares with the implementation (nil: the
	// agent builds its own).
	peers *peer.Manager
	// placed is a node homes can place, at the address at.
	placed core.Subject
	at     string
	// unplaced are role nodes homes cannot place (no answer, or an error).
	unplaced []core.Subject
	// fake is set when homes is a *fakeHomes, whose call record sharpens
	// two of the checks.
	fake *fakeHomes
}

// TestPlacementOrder pins the one answer to "where does this node live":
// the tag book, then Homes — for a fake Homes and for the DHT node
// (internal/cluster's TestRouterPlacementOrder runs the same cases over the
// shard router).
func TestPlacementOrder(t *testing.T) {
	impls := map[string]func(*testing.T, *env) placement{
		"fake": func(t *testing.T, e *env) placement {
			placed := core.SubjectRole(e.role("BigISP.member"))
			empty := core.SubjectRole(e.role("Ghost.a"))
			failing := core.SubjectRole(e.role("Ghost.b"))
			f := &fakeHomes{
				at:     map[core.Subject][]string{placed: {"wallet.bigisp", "wallet.bigisp-replica"}},
				failOn: map[core.Subject]error{failing: errors.New("directory down")},
			}
			return placement{homes: f, fake: f, placed: placed, at: "wallet.bigisp,wallet.bigisp-replica",
				unplaced: []core.Subject{empty, failing}}
		},
		"dht": func(t *testing.T, e *env) placement {
			ctx := context.Background()
			seed := serveDHTWallet(t, e, "wallet.seed", "Seed")
			big := serveDHTWallet(t, e, "wallet.bigisp", "BigISP")
			if err := big.node.Bootstrap(ctx, []string{seed.addr}); err != nil {
				t.Fatal(err)
			}
			if err := big.node.Announce(ctx, big.owner, []string{big.addr}); err != nil {
				t.Fatal(err)
			}
			cnode, cpeers := clientDHT(t, e, "Client")
			if err := cnode.Bootstrap(ctx, []string{seed.addr}); err != nil {
				t.Fatal(err)
			}
			// Ghost never announced a provider record.
			return placement{homes: cnode, peers: cpeers,
				placed: core.SubjectRole(e.role("BigISP.member")), at: "wallet.bigisp",
				unplaced: []core.Subject{core.SubjectRole(e.role("Ghost.a")), core.SubjectRole(e.role("Ghost.b"))}}
		},
	}
	for name, build := range impls {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Ghost", "Client", "Seed")
			p := build(t, e)
			a, _ := e.agent("Client", Config{Peers: p.peers, Homes: p.homes})
			ctx := context.Background()

			// First, while nothing about the placed node is cached anywhere:
			// a context cancelled before the call is the one Home sees.
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if tag, ok := a.tagFor(cancelled, p.placed); ok {
				t.Fatalf("cancelled context still placed the node: %+v", tag)
			}
			if p.fake != nil {
				if _, sawDone := p.fake.seen(); !sawDone {
					t.Fatal("Home did not see the caller's cancelled context")
				}
			}

			want := core.DiscoveryTag{Home: p.at, TTL: placedTagTTL, Subject: core.SubjectSearch, Object: core.ObjectSearch}
			if tag, ok := a.tagFor(ctx, p.placed); !ok || tag != want {
				t.Fatalf("tagFor(placed) = %+v, %v; want %+v", tag, ok, want)
			}

			// A book entry wins, and Homes is not even asked.
			book := core.DiscoveryTag{Home: "book.home", TTL: time.Hour, Subject: core.SubjectStore}.Normalize()
			a.RegisterTag(p.placed, book)
			var before int
			if p.fake != nil {
				before, _ = p.fake.seen()
			}
			if tag, ok := a.tagFor(ctx, p.placed); !ok || tag != book {
				t.Fatalf("tagFor(placed) with a book entry = %+v, %v; want the book's %+v", tag, ok, book)
			}
			if p.fake != nil {
				if after, _ := p.fake.seen(); after != before {
					t.Fatalf("Homes consulted %d times for a node the book places", after-before)
				}
			}

			// A miss or an error is "no tag" — and a search over such nodes
			// dials nobody.
			for _, node := range p.unplaced {
				if tag, ok := a.tagFor(ctx, node); ok {
					t.Fatalf("tagFor(%s) = %+v, want no tag", node, tag)
				}
			}
			var stats Stats
			_, err := a.Discover(ctx, wallet.Query{Subject: p.unplaced[0], Object: p.unplaced[1].Role}, Auto, &stats)
			if !errors.Is(err, core.ErrNoProof) {
				t.Fatalf("discover over unplaced nodes: %v, want ErrNoProof", err)
			}
			if stats.WalletsContacted != 0 || stats.RemoteQueries != 0 {
				t.Fatalf("unplaced nodes were dialed: %d wallets, %d queries", stats.WalletsContacted, stats.RemoteQueries)
			}
		})
	}
}

// TestDirectoryPlacedCredentialStaysFresh: a credential with no discovery
// tag, fetched from a home only Homes could name, is inserted with the
// placed tag's TTL — and must be renewed with it too, by the home's Renewed
// push (Bridge) and by KeepFresh's confirmations alike. Both renewals used
// to look the TTL up in the tag book alone, found none, and let the copy go
// stale while its home kept confirming it.
func TestDirectoryPlacedCredentialStaysFresh(t *testing.T) {
	setup := func(t *testing.T) (e *env, a *Agent, home, local *wallet.Wallet, d *core.Delegation, renewed chan struct{}) {
		e = newEnv(t, "AirNet", "Maria", "Server")
		home = e.serve("wallet.airnet", "AirNet")
		d = e.deleg("[Maria -> AirNet.access] AirNet")
		if err := home.InsertCached(d, nil, time.Hour); err != nil {
			t.Fatal(err)
		}
		homes := &fakeHomes{at: map[core.Subject][]string{e.subject("Maria"): {"wallet.airnet"}}}
		a, local = e.agent("Server", Config{Homes: homes})
		p, err := a.Discover(context.Background(), wallet.Query{
			Subject: e.subject("Maria"),
			Object:  e.role("AirNet.access"),
		}, Auto, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Delegations()) != 1 || !local.Contains(d.ID()) {
			t.Fatal("credential was not fetched into the local wallet")
		}
		renewed = make(chan struct{}, 8)
		unsub := local.Subscribe(d.ID(), func(ev subs.Event) {
			if ev.Kind == subs.Renewed {
				select {
				case renewed <- struct{}{}:
				default:
				}
			}
		})
		t.Cleanup(unsub)
		return e, a, home, local, d, renewed
	}
	stillFresh := func(t *testing.T, local *wallet.Wallet, d *core.Delegation) {
		t.Helper()
		if n := local.SweepStaleCache(); n != 0 {
			t.Fatalf("cached copy went stale past its first TTL: %d swept", n)
		}
		if !local.Contains(d.ID()) {
			t.Fatal("cached copy is gone")
		}
	}

	t.Run("Renewed push", func(t *testing.T) {
		e, a, home, local, d, renewed := setup(t)
		p, err := local.QueryDirect(wallet.Query{Subject: e.subject("Maria"), Object: e.role("AirNet.access")})
		if err != nil {
			t.Fatal(err)
		}
		cancel, err := a.Bridge(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		e.clk.Advance(25 * time.Second)
		if !home.RenewCached(d.ID(), time.Hour) {
			t.Fatal("home renew failed")
		}
		select {
		case <-renewed:
		case <-time.After(2 * time.Second):
			t.Fatal("the home's Renewed push did not renew the local copy")
		}
		e.clk.Advance(10 * time.Second) // t=35s, past the first 30s TTL
		stillFresh(t, local, d)
	})

	t.Run("KeepFresh", func(t *testing.T) {
		e, a, _, local, d, renewed := setup(t)
		stop := a.KeepFresh(10 * time.Second)
		defer stop()
		// Tick the refresher past the first TTL (the loop registers its
		// timer asynchronously, so a nudge may find no timer to fire; the
		// next one does).
		confirmations := 0
		deadline := time.Now().Add(5 * time.Second)
		for e.clk.Now().Before(testStart.Add(40*time.Second)) || confirmations == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("KeepFresh renewed the cached copy %d times in %s of fake time", confirmations, e.clk.Now().Sub(testStart))
			}
			e.clk.Advance(10 * time.Second)
			select {
			case <-renewed:
				confirmations++
			case <-time.After(100 * time.Millisecond):
			}
		}
		stillFresh(t, local, d)
	})
}
