package gossip

import (
	"sync"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

var testStart = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// verdictLog records OnVerdict calls thread-safely.
type verdictLog struct {
	mu sync.Mutex
	vs []string
}

func (v *verdictLog) add(addr string, alive bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := addr + ":down"
	if alive {
		s = addr + ":up"
	}
	v.vs = append(v.vs, s)
}

func (v *verdictLog) has(want string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.vs {
		if s == want {
			return true
		}
	}
	return false
}

type testEnv struct {
	t   *testing.T
	clk *clock.Fake
	net *transport.MemNetwork
}

type gossipNode struct {
	id       *core.Identity
	addr     string
	node     *Node
	server   *remote.Server
	ln       transport.Listener
	verdicts *verdictLog
	// plan injects faults on this node's OUTBOUND dials, keyed by target.
	plan *transport.Faults
}

func newTestEnv(t *testing.T) *testEnv {
	return &testEnv{t: t, clk: clock.NewFake(testStart), net: transport.NewMemNetwork()}
}

func (e *testEnv) start(name string, n byte) *gossipNode {
	e.t.Helper()
	seed := make([]byte, 32)
	seed[0] = n
	copy(seed[1:], name)
	id, err := core.IdentityFromSeed(name, seed)
	if err != nil {
		e.t.Fatal(err)
	}
	addr := "wallet." + name
	vlog := &verdictLog{}
	plan := transport.NewFaults()
	peers := peer.NewManager(peer.Config{
		Dialer:      &transport.FaultDialer{Inner: e.net.Dialer(id), Plan: plan},
		Clock:       e.clk,
		CallTimeout: 5 * time.Second,
	})
	node, err := NewNode(Config{
		SelfAddr:       addr,
		Peers:          peers,
		Clock:          e.clk,
		SuspectTimeout: 5 * time.Second,
		OnVerdict:      vlog.add,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	gn := &gossipNode{id: id, addr: addr, node: node, verdicts: vlog, plan: plan}
	gn.serve(e)
	e.t.Cleanup(func() {
		node.Close()
		gn.server.Close()
		peers.Close()
	})
	return gn
}

// serve (re)starts the node's wallet server — the rejoin path after kill.
func (gn *gossipNode) serve(e *testEnv) {
	e.t.Helper()
	ln, err := e.net.Listen(gn.addr, gn.id)
	if err != nil {
		e.t.Fatal(err)
	}
	gn.ln = ln
	w := wallet.New(wallet.Config{Owner: gn.id, Clock: e.clk})
	gn.server = remote.ServeOptions(w, ln, remote.Options{Gossip: gn.node})
}

func (gn *gossipNode) kill() {
	gn.server.Close()
}

func TestDirectProbeKeepsAlive(t *testing.T) {
	e := newTestEnv(t)
	a := e.start("a", 1)
	b := e.start("b", 2)
	a.node.Join([]string{b.addr})
	b.node.Join([]string{a.addr})

	a.node.probe(b.addr)
	if st, ok := a.node.StatusOf(b.addr); !ok || st != Alive {
		t.Fatalf("b's status at a = %v, want Alive", st)
	}
	// The probe's piggybacked self-announcement taught b about a.
	if st, ok := b.node.StatusOf(a.addr); !ok || st != Alive {
		t.Fatalf("a's status at b = %v, want Alive", st)
	}
}

func TestIndirectProbeSavesPartitionedLink(t *testing.T) {
	e := newTestEnv(t)
	a := e.start("a", 1)
	b := e.start("b", 2)
	c := e.start("c", 3)
	a.node.Join([]string{b.addr, c.addr})
	b.node.Join([]string{a.addr, c.addr})
	c.node.Join([]string{a.addr, b.addr})

	// a's own link to b is broken (a→b dials refused), but c can still
	// reach b: the ping-req relay must keep b alive in a's view.
	a.plan.Set(b.addr, transport.Fault{RefuseDial: true})
	a.node.probe(b.addr)
	if st, _ := a.node.StatusOf(b.addr); st != Alive {
		t.Fatalf("b suspected despite a live relay path: %v", st)
	}
}

func TestSuspectThenDeadThenRejoin(t *testing.T) {
	e := newTestEnv(t)
	a := e.start("a", 1)
	b := e.start("b", 2)
	c := e.start("c", 3)
	a.node.Join([]string{b.addr, c.addr})
	b.node.Join([]string{a.addr, c.addr})
	c.node.Join([]string{a.addr, b.addr})

	// Warm everyone's view.
	a.node.probe(b.addr)
	a.node.probe(c.addr)

	b.kill()
	a.node.probe(b.addr)
	if st, _ := a.node.StatusOf(b.addr); st != Suspect {
		t.Fatalf("dead b not suspected: %v", st)
	}
	// The refutation window passes with no word from b: declared dead,
	// verdict fed to the breaker fan-out.
	e.clk.Advance(5 * time.Second)
	a.node.sweepSuspects()
	if st, _ := a.node.StatusOf(b.addr); st != Dead {
		t.Fatalf("suspect b not declared dead: %v", st)
	}
	if !a.verdicts.has(b.addr + ":down") {
		t.Fatalf("no down verdict for b: %v", a.verdicts.vs)
	}

	// The death disseminates to c on a's next probe exchange.
	a.node.probe(c.addr)
	if st, _ := c.node.StatusOf(b.addr); st != Dead {
		t.Fatalf("death did not disseminate to c: %v", st)
	}
	if !c.verdicts.has(b.addr + ":down") {
		t.Fatalf("no relayed down verdict at c: %v", c.verdicts.vs)
	}

	// b restarts and probes a directly: firsthand contact resurrects it
	// and the up verdict clears the breakers.
	b.serve(e)
	b.node.probe(a.addr)
	if st, _ := a.node.StatusOf(b.addr); st != Alive {
		t.Fatalf("rejoined b not alive at a: %v", st)
	}
	if !a.verdicts.has(b.addr + ":up") {
		t.Fatalf("no up verdict for b at a: %v", a.verdicts.vs)
	}
	// And the revival disseminates (with a bumped incarnation, so it beats
	// the dead entry) to c.
	a.node.probe(c.addr)
	if st, _ := c.node.StatusOf(b.addr); st != Alive {
		t.Fatalf("revival did not disseminate to c: %v", st)
	}
}

func TestSelfRefutation(t *testing.T) {
	e := newTestEnv(t)
	a := e.start("a", 1)
	b := e.start("b", 2)
	a.node.Join([]string{b.addr})
	b.node.Join([]string{a.addr})

	// b hears a rumor that it is itself suspect at incarnation 0: it must
	// bump its incarnation and queue an alive refutation.
	b.node.applyUpdates([]wire.GossipUpdate{{Addr: b.addr, Status: "suspect", Incarnation: 0}})
	b.node.mu.Lock()
	inc := b.node.selfInc
	b.node.mu.Unlock()
	if inc == 0 {
		t.Fatal("suspicion about self did not bump incarnation")
	}
	updates := b.node.drain()
	var refuted bool
	for _, u := range updates {
		if u.Addr == b.addr && u.Status == "alive" && u.Incarnation == inc {
			refuted = true
		}
	}
	if !refuted {
		t.Fatalf("no alive refutation queued: %v", updates)
	}
	// The refutation out-ranks the suspicion at a.
	a.node.applyUpdates([]wire.GossipUpdate{{Addr: b.addr, Status: "suspect", Incarnation: 0}})
	a.node.applyUpdates(updates)
	if st, _ := a.node.StatusOf(b.addr); st != Alive {
		t.Fatalf("refutation did not clear suspicion: %v", st)
	}
}

func TestUpdatePrecedence(t *testing.T) {
	e := newTestEnv(t)
	a := e.start("a", 1)
	a.node.Join([]string{"wallet.x"})

	// Same incarnation: dead beats suspect beats alive.
	a.node.applyUpdates([]wire.GossipUpdate{{Addr: "wallet.x", Status: "suspect", Incarnation: 1}})
	if st, _ := a.node.StatusOf("wallet.x"); st != Suspect {
		t.Fatalf("want Suspect, got %v", st)
	}
	a.node.applyUpdates([]wire.GossipUpdate{{Addr: "wallet.x", Status: "alive", Incarnation: 1}})
	if st, _ := a.node.StatusOf("wallet.x"); st != Suspect {
		t.Fatal("equal-incarnation alive overrode suspect")
	}
	a.node.applyUpdates([]wire.GossipUpdate{{Addr: "wallet.x", Status: "dead", Incarnation: 1}})
	if st, _ := a.node.StatusOf("wallet.x"); st != Dead {
		t.Fatal("equal-incarnation dead did not override suspect")
	}
	// Stale lower incarnation never claws back.
	a.node.applyUpdates([]wire.GossipUpdate{{Addr: "wallet.x", Status: "alive", Incarnation: 0}})
	if st, _ := a.node.StatusOf("wallet.x"); st != Dead {
		t.Fatal("stale incarnation resurrected a dead member")
	}
	// Higher incarnation alive (a refutation) does.
	a.node.applyUpdates([]wire.GossipUpdate{{Addr: "wallet.x", Status: "alive", Incarnation: 2}})
	if st, _ := a.node.StatusOf("wallet.x"); st != Alive {
		t.Fatal("higher-incarnation alive ignored")
	}

	alive, suspect, dead := a.node.Counts()
	if alive != 1 || suspect != 0 || dead != 0 {
		t.Fatalf("counts = %d/%d/%d, want 1/0/0", alive, suspect, dead)
	}
}

func TestPiggybackRetransmitBudget(t *testing.T) {
	e := newTestEnv(t)
	a := e.start("a", 1)
	a.node.mu.Lock()
	a.node.enqueueLocked(wire.GossipUpdate{Addr: "wallet.x", Status: "alive", Incarnation: 1})
	a.node.mu.Unlock()
	for i := 0; i < retransmit; i++ {
		found := false
		for _, u := range a.node.drain() {
			if u.Addr == "wallet.x" {
				found = true
			}
		}
		if !found {
			t.Fatalf("update missing on retransmission %d", i)
		}
	}
	if got := a.node.drain(); len(got) != 0 {
		t.Fatalf("update outlived its retransmit budget: %v", got)
	}
}
