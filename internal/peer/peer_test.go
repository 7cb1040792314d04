package peer

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

var testStart = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

type env struct {
	t   *testing.T
	clk *clock.Fake
	net *transport.MemNetwork
	ids map[string]*core.Identity
	dir *core.MemDirectory
}

func newEnv(t *testing.T, names ...string) *env {
	t.Helper()
	e := &env{
		t:   t,
		clk: clock.NewFake(testStart),
		net: transport.NewMemNetwork(),
		ids: make(map[string]*core.Identity),
		dir: core.NewDirectory(),
	}
	for i, name := range names {
		seed := make([]byte, 32)
		seed[0] = byte(i + 1)
		copy(seed[1:], name)
		id, err := core.IdentityFromSeed(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		e.ids[name] = id
		e.dir.Add(id.Entity())
	}
	return e
}

func (e *env) serve(addr, owner string) *remote.Server {
	e.t.Helper()
	w := wallet.New(wallet.Config{Owner: e.ids[owner], Clock: e.clk, Directory: e.dir})
	ln, err := e.net.Listen(addr, e.ids[owner])
	if err != nil {
		e.t.Fatal(err)
	}
	s := remote.Serve(w, ln)
	e.t.Cleanup(s.Close)
	return s
}

func (e *env) manager(clientName string, tweak func(*Config)) *Manager {
	e.t.Helper()
	cfg := Config{
		Dialer: e.net.Dialer(e.ids[clientName]),
		Clock:  e.clk,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	m := NewManager(cfg)
	e.t.Cleanup(m.Close)
	return m
}

// waitBroken blocks until c's read loop has noticed the peer hanging up.
func waitBroken(t *testing.T, c *remote.Client) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.Healthy() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Healthy() {
		t.Fatal("client did not notice dead server")
	}
}

func TestGetPoolsConnections(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.serve("bob.home", "bob")
	m := e.manager("alice", nil)

	ctx := context.Background()
	c1, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second Get did not reuse the pooled connection")
	}
	if err := c1.Ping(ctx); err != nil {
		t.Fatalf("ping over pooled conn: %v", err)
	}
	h := m.HealthOf("bob.home")
	if h.State != StateClosed || !h.Connected || h.ConsecutiveFailures != 0 {
		t.Fatalf("health = %+v, want closed/connected", h)
	}
}

func TestGetRedialsAfterBrokenConnection(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	srv := e.serve("bob.home", "bob")
	m := e.manager("alice", nil)

	ctx := context.Background()
	c1, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatal(err)
	}
	// Kill the server side; the client's read loop exits.
	srv.Close()
	waitBroken(t, c1)

	// Server comes back at the same address.
	e.serve("bob.home", "bob")
	c2, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatalf("redial after eviction: %v", err)
	}
	if c2 == c1 {
		t.Fatal("broken connection was not evicted")
	}
	if err := c2.Ping(ctx); err != nil {
		t.Fatalf("ping over redialed conn: %v", err)
	}
}

func TestCircuitOpensAndRecovers(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	m := e.manager("alice", nil)
	ctx := context.Background()

	// Nothing listens at the address: three dials fail and open the circuit.
	for i := 0; i < 3; i++ {
		if _, err := m.Get(ctx, "bob.home"); err == nil {
			t.Fatalf("dial %d to dead address succeeded", i)
		}
	}
	h := m.HealthOf("bob.home")
	if h.State != StateOpen {
		t.Fatalf("state after 3 failures = %v, want open", h.State)
	}
	if h.ConsecutiveFailures != 3 {
		t.Fatalf("failures = %d, want 3", h.ConsecutiveFailures)
	}

	// Inside the backoff window: fast fail, no dial.
	if _, err := m.Get(ctx, "bob.home"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("get inside window = %v, want ErrCircuitOpen", err)
	}

	// After the window (the third failure's backoff is 400ms; jitter keeps
	// it under that): the probe is admitted, and with the server back it closes the circuit.
	e.clk.Advance(2 * time.Second)
	if got := m.HealthOf("bob.home").State; got != StateHalfOpen {
		t.Fatalf("state after window = %v, want half-open", got)
	}
	e.serve("bob.home", "bob")
	c, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	h = m.HealthOf("bob.home")
	if h.State != StateClosed || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after recovery = %+v, want closed/0", h)
	}
}

func TestFailedProbeReopensWithLongerWindow(t *testing.T) {
	e := newEnv(t, "alice")
	m := e.manager("alice", nil)
	ctx := context.Background()
	for i := 0; i < failureThreshold; i++ {
		if _, err := m.Get(ctx, "dead"); err == nil {
			t.Fatal("dial to dead address succeeded")
		}
	}
	first := m.HealthOf("dead").RetryAt
	e.clk.Advance(time.Second)
	if _, err := m.Get(ctx, "dead"); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe should have dialed and failed, got %v", err)
	}
	second := m.HealthOf("dead").RetryAt
	if !second.After(first) {
		t.Fatalf("retry window did not move forward: %v -> %v", first, second)
	}
	if m.HealthOf("dead").ConsecutiveFailures != failureThreshold+1 {
		t.Fatalf("failures = %d, want %d", m.HealthOf("dead").ConsecutiveFailures, failureThreshold+1)
	}
}

func TestReportFailureIgnoresHealthyAndStaleClients(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.serve("bob.home", "bob")
	m := e.manager("alice", nil)
	ctx := context.Background()

	c1, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatal(err)
	}
	// A failed call over a live connection (a NoProof answer, say) is not a
	// peer failure: the pool keeps the connection and counts nothing.
	m.ReportFailure("bob.home", c1)
	if h := m.HealthOf("bob.home"); !h.Connected || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after report on a healthy connection = %+v, want connected with 0 failures", h)
	}
	c1.Close()
	m.ReportFailure("bob.home", c1)
	if h := m.HealthOf("bob.home"); h.Connected || h.ConsecutiveFailures != 1 {
		t.Fatalf("health after report = %+v, want evicted with 1 failure", h)
	}
	c2, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("reported client was not replaced")
	}
	// A stale report about the long-gone c1 must not evict c2.
	m.ReportFailure("bob.home", c1)
	c3, err := m.Get(ctx, "bob.home")
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c2 {
		t.Fatal("stale failure report poisoned the fresh connection")
	}
}

func TestGetHonorsCanceledContext(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.serve("bob.home", "bob")
	m := e.manager("alice", nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Get(ctx, "bob.home"); !errors.Is(err, context.Canceled) {
		t.Fatalf("get = %v, want context.Canceled", err)
	}
}

func TestManagerMetrics(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.serve("bob.home", "bob")
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	m := e.manager("alice", func(c *Config) { c.Obs = o })
	ctx := context.Background()
	if _, err := m.Get(ctx, "bob.home"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < failureThreshold; i++ {
		if _, err := m.Get(ctx, "dead"); err == nil {
			t.Fatal("dial to dead address succeeded")
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["drbac_peer_dials_total"] != 1+failureThreshold {
		t.Fatalf("dials = %d, want %d", snap.Counters["drbac_peer_dials_total"], 1+failureThreshold)
	}
	if snap.Counters["drbac_peer_dial_failures_total"] != failureThreshold {
		t.Fatalf("dial failures = %d, want %d", snap.Counters["drbac_peer_dial_failures_total"], failureThreshold)
	}
	if snap.Counters["drbac_peer_circuit_opens_total"] != 1 {
		t.Fatalf("circuit opens = %d, want 1", snap.Counters["drbac_peer_circuit_opens_total"])
	}
	if snap.Gauges["drbac_peer_connections"] != 1 {
		t.Fatalf("live connections = %d, want 1", snap.Gauges["drbac_peer_connections"])
	}
}

func TestJitterWithinHalfToFull(t *testing.T) {
	d := 400 * time.Millisecond
	for i := 1; i <= 10; i++ {
		j := jitter("addr", i, d)
		if j < d/2 || j >= d {
			t.Fatalf("jitter(%d) = %v outside [%v, %v)", i, j, d/2, d)
		}
	}
}

// TestGetAnyFailsOver drives the replica-group read path: GetAny prefers a
// live connection anywhere in the group, fails over to another member when
// one address is dead, and errors only when the whole group is down.
func TestGetAnyFailsOver(t *testing.T) {
	e := newEnv(t, "alice", "bob", "carol")
	bob := e.serve("bob.home", "bob")
	e.serve("carol.home", "carol")
	m := e.manager("alice", nil)
	group := []string{"bob.home", "carol.home", "nobody.home"}
	ctx := context.Background()

	c1, addr1, err := m.GetAny(ctx, group)
	if err != nil {
		t.Fatal(err)
	}
	if addr1 == "nobody.home" {
		t.Fatalf("GetAny chose the dead address %q", addr1)
	}

	// Pass 1 reuse: with a live pooled connection the same client returns,
	// regardless of the rotation point.
	for i := 0; i < 4; i++ {
		c2, addr2, err := m.GetAny(ctx, group)
		if err != nil {
			t.Fatal(err)
		}
		if c2 != c1 || addr2 != addr1 {
			t.Fatalf("GetAny = (%p, %q), want pooled (%p, %q)", c2, addr2, c1, addr1)
		}
	}

	// Kill bob entirely: GetAny must answer from carol.
	bob.Close()
	if addr1 == "bob.home" {
		waitBroken(t, c1)
		m.ReportFailure("bob.home", c1)
	}
	c3, addr3, err := m.GetAny(ctx, group)
	if err != nil {
		t.Fatal(err)
	}
	if addr3 == "bob.home" {
		t.Fatalf("GetAny chose closed bob.home")
	}
	if !c3.Healthy() {
		t.Fatal("GetAny returned an unhealthy client")
	}

	// Whole group unreachable: a single wrapped error comes back.
	if _, _, err := m.GetAny(ctx, []string{"gone.one", "gone.two"}); err == nil {
		t.Fatal("GetAny succeeded against dead group")
	}
	if _, _, err := m.GetAny(ctx, nil); err == nil {
		t.Fatal("GetAny succeeded with no addresses")
	}
}

func TestGetAnyEmptyGroup(t *testing.T) {
	e := newEnv(t, "alice")
	m := e.manager("alice", nil)
	for _, group := range [][]string{nil, {}} {
		if _, _, err := m.GetAny(context.Background(), group); err == nil {
			t.Errorf("GetAny(%v) succeeded, want an error", group)
		}
	}
}

// GetAny over a group listing the same address twice must not double-pool:
// both picks return the one pooled connection, and the rotation arithmetic
// stays in bounds.
func TestGetAnyDuplicateAddresses(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.serve("bob.home", "bob")
	m := e.manager("alice", nil)
	group := []string{"bob.home", "bob.home", "bob.home"}
	ctx := context.Background()

	c1, addr1, err := m.GetAny(ctx, group)
	if err != nil {
		t.Fatal(err)
	}
	if addr1 != "bob.home" {
		t.Fatalf("GetAny answered from %q", addr1)
	}
	for i := 0; i < 5; i++ {
		c2, _, err := m.GetAny(ctx, group)
		if err != nil {
			t.Fatal(err)
		}
		if c2 != c1 {
			t.Fatal("duplicate addresses produced a second pooled connection")
		}
	}
	if h := m.HealthOf("bob.home"); !h.Connected {
		t.Fatal("pool reports bob.home not connected")
	}
	if n := len(m.Health()); n != 1 {
		t.Fatalf("pool tracks %d addresses, want 1", n)
	}
}

// A fully broken group aggregates into one error that names the group and
// wraps the first member's failure, so callers can log something useful.
func TestGetAnyAllBrokenAggregatesError(t *testing.T) {
	e := newEnv(t, "alice")
	m := e.manager("alice", nil)
	group := []string{"dead.one", "dead.two", "dead.three"}
	_, _, err := m.GetAny(context.Background(), group)
	if err == nil {
		t.Fatal("GetAny succeeded against an all-dead group")
	}
	for _, addr := range group {
		if !strings.Contains(err.Error(), addr) {
			t.Errorf("error %q does not name member %q", err, addr)
		}
	}
	if !strings.Contains(err.Error(), "no reachable address") {
		t.Errorf("error %q lacks the aggregate marker", err)
	}
}

// A peer that dies and comes back at the same address is redialed within one
// backoff window of its return however long it was down: the window is
// capped at maxBackoff, and the first Get after it elapses is the probe that
// closes the circuit. Until then no dial is made.
func TestRestartedPeerRedialedWithinOneBackoffWindow(t *testing.T) {
	e := newEnv(t, "client", "server")
	m := e.manager("client", nil)
	ctx := context.Background()

	// A long outage: every probe fails, doubling the window up to the cap.
	for i := 0; i < 12; i++ {
		if _, err := m.Get(ctx, "gone"); err == nil {
			t.Fatal("dial to unserved address succeeded")
		}
		e.clk.Advance(maxBackoff)
	}
	if _, err := m.Get(ctx, "gone"); err == nil {
		t.Fatal("dial to unserved address succeeded")
	}

	e.serve("gone", "server")
	h := m.HealthOf("gone")
	if h.State != StateOpen || h.RetryAt.Sub(e.clk.Now()) > maxBackoff {
		t.Fatalf("health after the outage = %+v, want open for at most %s", h, maxBackoff)
	}
	if _, err := m.Get(ctx, "gone"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Get inside the window = %v, want ErrCircuitOpen", err)
	}
	e.clk.Advance(h.RetryAt.Sub(e.clk.Now()))
	if _, err := m.Get(ctx, "gone"); err != nil {
		t.Fatalf("Get once the window elapsed: %v", err)
	}
	if h := m.HealthOf("gone"); h.State != StateClosed || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after the probe = %+v, want closed/0", h)
	}
}
