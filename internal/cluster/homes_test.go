package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/discovery"
	"drbac/internal/remote"
	"drbac/internal/wallet"
)

type ctxMark struct{}

// memberHomes stands in for the DHT under the router: it resolves
// dht:<fingerprint> shard members from a map and records the contexts Home
// was called with.
type memberHomes struct {
	at map[core.Subject][]string

	mu        sync.Mutex
	err       error
	calls     int
	sawMarked bool          // a call carried the test's ctxMark value
	sawDone   bool          // a call's context ended while it waited
	entered   chan struct{} // when set: Home signals entry, then waits for its context to end
}

func (h *memberHomes) Home(ctx context.Context, node core.Subject) ([]string, error) {
	h.mu.Lock()
	h.calls++
	h.sawMarked = h.sawMarked || ctx.Value(ctxMark{}) != nil
	err, entered := h.err, h.entered
	h.mu.Unlock()
	if entered != nil {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			h.mu.Lock()
			h.sawDone = true
			h.mu.Unlock()
			return nil, ctx.Err()
		case <-time.After(3 * time.Second):
			return nil, errors.New("memberHomes: the caller's cancellation never arrived")
		}
	}
	if err != nil {
		return nil, err
	}
	return h.at[node], nil
}

func (h *memberHomes) set(f func(*memberHomes)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f(h)
}

// TestRouterPlacementOrder runs discovery's placement cases (book, then
// Homes; a miss is never dialed; the caller's context reaches Home) over the
// gateway's real Homes: a Router on a two-shard map whose second shard names
// its member by fingerprint.
func TestRouterPlacementOrder(t *testing.T) {
	e := newEnv(t, "C", "Maria", "gate", "Elsewhere")
	member := e.shardOwner(1)
	m := mustUniform(t, []string{"s0"}, []string{DHTAddr(member.ID())})
	e.serveShard("s0", 0, m)
	e.serveShard("s1", 1, m)
	homes := &memberHomes{at: map[core.Subject][]string{core.SubjectEntity(member.ID()): {"s1"}}}
	gw, err := NewWallet(WalletConfig{
		RouterConfig: RouterConfig{Map: m, Dialer: e.net.Dialer(e.id("gate")), Homes: homes},
		Identity:     e.id("gate"),
		Clock:        e.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	var placer discovery.Homes = gw.Router()
	ctx := context.Background()

	// Roles of C owned by each shard under the map.
	owned := map[int][]core.Subject{}
	for i := 0; len(owned[0]) < 1 || len(owned[1]) < 2; i++ {
		node := core.SubjectRole(e.role(fmt.Sprintf("C.r%d", i)))
		id := m.Owner(RouteKey(node)).ID
		owned[id] = append(owned[id], node)
	}

	// A plain member address passes through; a dht: member resolves through
	// the router's own Homes.
	if got, err := placer.Home(ctx, owned[0][0]); err != nil || !reflect.DeepEqual(got, []string{"s0"}) {
		t.Fatalf("Home(node on shard 0) = %v, %v; want [s0]", got, err)
	}
	if homes.calls != 0 {
		t.Fatalf("a plain address consulted the DHT %d times", homes.calls)
	}
	if got, err := placer.Home(ctx, owned[1][0]); err != nil || !reflect.DeepEqual(got, []string{"s1"}) {
		t.Fatalf("Home(node on shard 1) = %v, %v; want [s1]", got, err)
	}

	// A book entry wins over the router: Maria's credential is found at the
	// wallet her registered tag names, not at the shard her key hashes to.
	elsewhere := wallet.New(wallet.Config{Owner: e.id("Elsewhere"), Clock: e.clk, Directory: e.dir})
	ln, err := e.net.Listen("book.home", e.id("Elsewhere"))
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.Serve(elsewhere, ln)
	t.Cleanup(srv.Close)
	if err := elsewhere.Publish(e.deleg("[Maria -> C.vip] C")); err != nil {
		t.Fatal(err)
	}
	gw.agent.RegisterTag(e.subject("Maria"), core.DiscoveryTag{Home: "book.home", TTL: time.Minute, Subject: core.SubjectSearch})
	var stats discovery.Stats
	if _, err := gw.agent.Discover(ctx, wallet.Query{Subject: e.subject("Maria"), Object: e.role("C.vip")}, discovery.Auto, &stats); err != nil {
		t.Fatalf("discovery through the book entry: %v", err)
	}
	if len(stats.Trace) == 0 || stats.Trace[0].Wallet != "book.home" {
		t.Fatalf("first remote query went to %+v, want the book entry's home", stats.Trace)
	}

	// The member cannot be resolved: its nodes have no home, and a search
	// over them dials nobody.
	homes.set(func(h *memberHomes) { h.err = errors.New("dht: no provider record found") })
	if got, _ := placer.Home(ctx, owned[1][0]); len(got) != 0 {
		t.Fatalf("Home with the member unresolvable = %v, want no addresses", got)
	}
	stats = discovery.Stats{}
	q := wallet.Query{Subject: owned[1][0], Object: owned[1][1].Role}
	if _, err := gw.agent.Discover(ctx, q, discovery.Auto, &stats); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("discover over unplaceable nodes: %v, want ErrNoProof", err)
	}
	if stats.WalletsContacted != 0 || stats.RemoteQueries != 0 {
		t.Fatalf("unplaceable nodes were dialed: %d wallets, %d queries", stats.WalletsContacted, stats.RemoteQueries)
	}

	// The gateway query's own context is the one Home runs under: it carries
	// the caller's values, and cancelling it ends a lookup in flight instead
	// of leaving the query to wait the lookup out.
	entered := make(chan struct{}, 1)
	homes.set(func(h *memberHomes) { h.err, h.entered = nil, entered })
	qctx, cancel := context.WithCancel(context.WithValue(ctx, ctxMark{}, true))
	defer cancel()
	q.Ctx = qctx
	done := make(chan error, 1)
	go func() {
		_, err := gw.QueryDirect(q)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the gateway query never consulted Homes")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled gateway query returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled gateway query is still waiting on the lookup")
	}
	homes.set(func(h *memberHomes) {
		if !h.sawMarked || !h.sawDone {
			t.Fatalf("Home did not run under the query's context (values seen: %v, cancellation seen: %v)", h.sawMarked, h.sawDone)
		}
	})
}
