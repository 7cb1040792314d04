package discovery

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
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

// TestPlacementOrder pins the one answer to "where does this node live":
// the tag book, then Homes (internal/cluster's TestRouterPlacementOrder runs
// the same cases over the shard router).
func TestPlacementOrder(t *testing.T) {
	t.Run("fake", func(t *testing.T) {
		e := newEnv(t, "BigISP", "Ghost", "Client")
		placed := core.SubjectRole(e.role("BigISP.member"))
		empty := core.SubjectRole(e.role("Ghost.a"))
		failing := core.SubjectRole(e.role("Ghost.b"))
		f := &fakeHomes{
			at:     map[core.Subject][]string{placed: {"wallet.bigisp", "wallet.bigisp-replica"}},
			failOn: map[core.Subject]error{failing: errors.New("directory down")},
		}
		a, _ := e.agent("Client", Config{Homes: f})
		ctx := context.Background()

		// First, while nothing about the placed node is cached anywhere: a
		// context cancelled before the call is the one Home sees.
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if tag, ok := a.tagFor(cancelled, placed); ok {
			t.Fatalf("cancelled context still placed the node: %+v", tag)
		}
		if _, sawDone := f.seen(); !sawDone {
			t.Fatal("Home did not see the caller's cancelled context")
		}

		want := core.DiscoveryTag{Home: "wallet.bigisp,wallet.bigisp-replica", TTL: placedTagTTL, Subject: core.SubjectSearch, Object: core.ObjectSearch}
		if tag, ok := a.tagFor(ctx, placed); !ok || tag != want {
			t.Fatalf("tagFor(placed) = %+v, %v; want %+v", tag, ok, want)
		}

		// A book entry wins, and Homes is not even asked.
		book := core.DiscoveryTag{Home: "book.home", TTL: time.Hour, Subject: core.SubjectStore}.Normalize()
		a.RegisterTag(placed, book)
		before, _ := f.seen()
		if tag, ok := a.tagFor(ctx, placed); !ok || tag != book {
			t.Fatalf("tagFor(placed) with a book entry = %+v, %v; want the book's %+v", tag, ok, book)
		}
		if after, _ := f.seen(); after != before {
			t.Fatalf("Homes consulted %d times for a node the book places", after-before)
		}

		// A miss or an error is "no tag" — and a search over such nodes dials
		// nobody.
		for _, node := range []core.Subject{empty, failing} {
			if tag, ok := a.tagFor(ctx, node); ok {
				t.Fatalf("tagFor(%s) = %+v, want no tag", node, tag)
			}
		}
		var stats Stats
		_, err := a.Discover(ctx, wallet.Query{Subject: empty, Object: failing.Role}, Auto, &stats)
		if !errors.Is(err, core.ErrNoProof) {
			t.Fatalf("discover over unplaced nodes: %v, want ErrNoProof", err)
		}
		if stats.WalletsContacted != 0 || stats.RemoteQueries != 0 {
			t.Fatalf("unplaced nodes were dialed: %d wallets, %d queries", stats.WalletsContacted, stats.RemoteQueries)
		}
	})
}

// TestDirectoryPlacedCredentialStaysFresh: a credential with no discovery
// tag, fetched from a home only Homes could name, is inserted with the
// placed tag's TTL — and must be renewed with it too, by the home's Renewed
// push (Bridge). The renewal used to look the TTL up in the tag book alone,
// found none, and let the copy go stale while its home kept confirming it.
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
}

// TestBridgeRenewsWithInsertedTTL: every step of a fetched proof is renewed
// with the TTL it was inserted with. Here the fetch comes from a home only
// Homes could name for the query's subject; the proof's second step has an
// untagged subject that Homes does not place either, so looking its TTL up
// by subject found none, and every Renewed push for it was dropped.
func TestBridgeRenewsWithInsertedTTL(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Server")
	home := e.serve("wallet.airnet", "AirNet")
	steps := []*core.Delegation{
		e.deleg("[Maria -> AirNet.staff] AirNet"),
		e.deleg("[AirNet.staff -> AirNet.access] AirNet"),
	}
	for _, d := range steps {
		if err := home.InsertCached(d, nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	homes := &fakeHomes{at: map[core.Subject][]string{e.subject("Maria"): {"wallet.airnet"}}}
	a, local := e.agent("Server", Config{Homes: homes})
	p, err := a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("AirNet.access"),
	}, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 || !local.Contains(steps[1].ID()) {
		t.Fatal("the two-step proof was not fetched into the local wallet")
	}
	renewed := make(chan struct{}, 8)
	unsub := local.Subscribe(steps[1].ID(), func(ev subs.Event) {
		if ev.Kind == subs.Renewed {
			select {
			case renewed <- struct{}{}:
			default:
			}
		}
	})
	defer unsub()
	cancel, err := a.Bridge(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	e.clk.Advance(25 * time.Second)
	for _, d := range steps {
		if !home.RenewCached(d.ID(), time.Hour) {
			t.Fatal("home renew failed")
		}
	}
	select {
	case <-renewed:
	case <-time.After(2 * time.Second):
		t.Fatal("the home's Renewed push did not renew the untagged step's copy")
	}
	e.clk.Advance(10 * time.Second) // t=35s, past the first 30s TTL
	if n := local.SweepStaleCache(); n != 0 {
		t.Fatalf("%d cached copies went stale past their first TTL", n)
	}
}
