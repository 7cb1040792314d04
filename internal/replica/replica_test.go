package replica

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/logstore"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

var testStart = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// env is the replication test bench: identities, a fake wallet clock, and
// an in-process network.
type env struct {
	t   *testing.T
	ids map[string]*core.Identity
	dir *core.MemDirectory
	clk *clock.Fake
	net *transport.MemNetwork
}

func newEnv(t *testing.T, names ...string) *env {
	t.Helper()
	e := &env{
		t:   t,
		ids: make(map[string]*core.Identity),
		dir: core.NewDirectory(),
		clk: clock.NewFake(testStart),
		net: transport.NewMemNetwork(),
	}
	for i, name := range names {
		seed := make([]byte, 32)
		seed[0] = byte(i + 1)
		copy(seed[1:], name)
		id, err := core.IdentityFromSeed(name, seed)
		if err != nil {
			t.Fatalf("identity %s: %v", name, err)
		}
		e.ids[name] = id
		e.dir.Add(id.Entity())
	}
	return e
}

func (e *env) id(name string) *core.Identity {
	id, ok := e.ids[name]
	if !ok {
		e.t.Fatalf("unknown identity %q", name)
	}
	return id
}

func (e *env) deleg(text string) *core.Delegation {
	e.t.Helper()
	parsed, err := core.ParseDelegation(text, e.dir)
	if err != nil {
		e.t.Fatalf("parse %q: %v", text, err)
	}
	var issuer *core.Identity
	for _, id := range e.ids {
		if id.ID() == parsed.Issuer.ID() {
			issuer = id
		}
	}
	if issuer == nil {
		e.t.Fatalf("no identity for issuer of %q", text)
	}
	d, err := core.Issue(issuer, parsed.Template, e.clk.Now())
	if err != nil {
		e.t.Fatalf("issue %q: %v", text, err)
	}
	return d
}

func (e *env) wallet(ownerName string, o *obs.Obs) *wallet.Wallet {
	return wallet.New(wallet.Config{Owner: e.id(ownerName), Clock: e.clk, Directory: e.dir, Obs: o})
}

// serve exposes w at addr with the given wire-server options.
func (e *env) serve(addr, ownerName string, w *wallet.Wallet, opts remote.Options) *remote.Server {
	e.t.Helper()
	ln, err := e.net.Listen(addr, e.id(ownerName))
	if err != nil {
		e.t.Fatal(err)
	}
	s := remote.ServeOptions(w, ln, opts)
	e.t.Cleanup(s.Close)
	return s
}

// follower starts a follower replicating from addrs into a fresh wallet.
func (e *env) follower(ownerName string, addrs []string, o *obs.Obs, d transport.Dialer) (*Follower, *wallet.Wallet) {
	e.t.Helper()
	if d == nil {
		d = e.net.Dialer(e.id(ownerName))
	}
	w := e.wallet(ownerName, o)
	f, err := Start(Config{
		Local:          w,
		Addrs:          addrs,
		Dialer:         d,
		Obs:            o,
		RetryInterval:  20 * time.Millisecond,
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(f.Close)
	return f, w
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// converged reports whether the follower wallet mirrors the primary:
// same applied seq and the same replicable-state summary.
func converged(primary, follower *wallet.Wallet, f *Follower) bool {
	ps, fs := primary.Stats(), follower.Stats()
	return f.Status().AppliedSeq == primary.Seq() &&
		ps.Delegations == fs.Delegations && ps.Revoked == fs.Revoked
}

// TestFollowerBootstrapAndStream replays the basic replication lifecycle:
// state published before the follower starts arrives via the bootstrap
// snapshot, state published after it arrives via the stream, and a
// revocation propagates — leaving both wallets with identical summaries.
func TestFollowerBootstrapAndStream(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.wallet("BigISP", nil)
	d1 := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := primary.Publish(d1); err != nil {
		t.Fatal(err)
	}
	e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})

	f, fw := e.follower("Replica", []string{"primary"}, nil, nil)
	// Wait for the live stream, not just the snapshot: a publish issued
	// before the subscription attaches lands in the bootstrap window and is
	// (correctly) recovered by a resync, which this test asserts against.
	waitFor(t, "bootstrap convergence", func() bool {
		return f.Status().Connected && converged(primary, fw, f)
	})
	if !fw.Contains(d1.ID()) {
		t.Fatalf("follower missing bootstrap delegation %s", d1.ID().Short())
	}

	// Live stream: a publish and a revocation after the follower attached.
	d2 := e.deleg("[BigISP.member -> BigISP.user] BigISP")
	if err := primary.Publish(d2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream publish", func() bool { return fw.Contains(d2.ID()) })
	primary.AcceptRevocation(d1.ID())
	waitFor(t, "stream revocation", func() bool { return fw.IsRevoked(d1.ID()) })
	waitFor(t, "post-mutation convergence", func() bool { return converged(primary, fw, f) })

	st := f.Status()
	if st.Resyncs != 0 {
		t.Errorf("Resyncs = %d, want 0 (clean stream needs no resync)", st.Resyncs)
	}
	if !st.Connected || st.Upstream != "primary" {
		t.Errorf("Status = %+v, want connected to primary", st)
	}
}

// TestBootstrapRaceResyncsOnce drives the snapshot-vs-stream race: a
// mutation lands on the primary after the follower's snapshot but before
// its stream subscription. The subscribe-all seq exposes the gap, and
// exactly one resync closes it.
func TestBootstrapRaceResyncsOnce(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.wallet("BigISP", nil)
	if err := primary.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})

	raced := e.deleg("[BigISP.member -> BigISP.user] BigISP")
	var once sync.Once
	testHookAfterSync = func() {
		once.Do(func() {
			if err := primary.Publish(raced); err != nil {
				t.Errorf("raced publish: %v", err)
			}
		})
	}
	defer func() { testHookAfterSync = nil }()

	f, fw := e.follower("Replica", []string{"primary"}, nil, nil)
	// The follower also looks converged for an instant before the raced
	// publish (snapshot applied, hook not yet run), so wait for the raced
	// delegation itself, not for agreement alone.
	waitFor(t, "race convergence", func() bool {
		return fw.Contains(raced.ID()) && converged(primary, fw, f)
	})
	if got := f.Status().Resyncs; got != 1 {
		t.Errorf("Resyncs = %d, want exactly 1", got)
	}
}

// TestReplicaMetricsExported checks the drbac_replica_* instruments land in
// the follower's registry with live values.
func TestReplicaMetricsExported(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.wallet("BigISP", nil)
	if err := primary.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})

	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	f, fw := e.follower("Replica", []string{"primary"}, o, nil)
	waitFor(t, "metric convergence", func() bool {
		return f.Status().Connected && converged(primary, fw, f)
	})

	snap := reg.Snapshot()
	if got, want := snap.Gauges["drbac_replica_applied_seq"], int64(primary.Seq()); got != want {
		t.Errorf("drbac_replica_applied_seq = %d, want %d", got, want)
	}
	if got := snap.Gauges["drbac_replica_connected"]; got != 1 {
		t.Errorf("drbac_replica_connected = %d, want 1", got)
	}
	if lag, ok := snap.Gauges["drbac_replica_lag_seconds"]; !ok || lag < 0 {
		t.Errorf("drbac_replica_lag_seconds = %d (present %v), want >= 0", lag, ok)
	}
}

// TestReadOnlyReplicaRejectsMutations locks down the §9 mutation rule: a
// replica answers queries but refuses publish and revoke.
func TestReadOnlyReplicaRejectsMutations(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.wallet("BigISP", nil)
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := primary.Publish(d); err != nil {
		t.Fatal(err)
	}
	e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})
	_, fw := e.follower("Replica", []string{"primary"}, nil, nil)
	e.serve("replica", "Replica", fw, remote.Options{Role: "replica", ReadOnly: true})
	waitFor(t, "replica serving state", func() bool { return fw.Contains(d.ID()) })

	c, err := remote.Dial(context.Background(), e.net.Dialer(e.id("Maria")), "replica")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	subj, err := core.ParseSubject("Maria", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	role, err := core.ParseRole("BigISP.member", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryDirect(ctx, subj, role, nil, 0); err != nil {
		t.Fatalf("replica read failed: %v", err)
	}

	extra := e.deleg("[BigISP.member -> BigISP.user] BigISP")
	if err := c.Publish(ctx, extra, nil, 0); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("publish on replica: err = %v, want read-only refusal", err)
	}
	if err := c.Revoke(ctx, d.ID()); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("revoke on replica: err = %v, want read-only refusal", err)
	}
}

// TestReadFailover scales the read path out: a client pool holding the
// primary and a replica keeps answering queries after the primary dies.
func TestReadFailover(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.wallet("BigISP", nil)
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := primary.Publish(d); err != nil {
		t.Fatal(err)
	}
	psrv := e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})
	_, fw := e.follower("Replica", []string{"primary"}, nil, nil)
	e.serve("replica", "Replica", fw, remote.Options{Role: "replica", ReadOnly: true})
	waitFor(t, "replica serving state", func() bool { return fw.Contains(d.ID()) })

	pool := peer.NewManager(peer.Config{Dialer: e.net.Dialer(e.id("Maria"))})
	defer pool.Close()
	group := []string{"primary", "replica"}
	ctx := context.Background()

	subj, err := core.ParseSubject("Maria", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	role, err := core.ParseRole("BigISP.member", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	query := func() (string, error) {
		c, addr, err := pool.GetAny(ctx, group)
		if err != nil {
			return "", err
		}
		if _, err := c.QueryDirect(ctx, subj, role, nil, 0); err != nil {
			pool.ReportFailure(addr, c)
			return addr, err
		}
		return addr, nil
	}

	if _, err := query(); err != nil {
		t.Fatalf("query with primary up: %v", err)
	}

	psrv.Close() // primary gone: pooled connection breaks, dials fail

	// The first attempt may land on the dying pooled connection; the pool
	// evicts it and fails over to the replica within a few tries.
	var addr string
	waitFor(t, "failover to replica", func() bool {
		a, err := query()
		if err != nil {
			return false
		}
		addr = a
		return true
	})
	if addr != "replica" {
		t.Errorf("failover answered from %q, want replica", addr)
	}
}

// TestChainedReplica replicates a replica: sequenced events emitted by a
// follower's own wallet feed a second-tier follower to the same state.
func TestChainedReplica(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Mid", "Leaf")
	primary := e.wallet("BigISP", nil)
	if err := primary.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})

	_, mid := e.follower("Mid", []string{"primary"}, nil, nil)
	e.serve("mid", "Mid", mid, remote.Options{Role: "replica", ReadOnly: true})
	leafF, leaf := e.follower("Leaf", []string{"mid"}, nil, nil)

	d2 := e.deleg("[BigISP.member -> BigISP.user] BigISP")
	if err := primary.Publish(d2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two-hop convergence", func() bool {
		return leaf.Contains(d2.ID()) && converged(mid, leaf, leafF)
	})
	ps, ls := primary.Stats(), leaf.Stats()
	if ps.Delegations != ls.Delegations || ps.Revoked != ls.Revoked {
		t.Errorf("leaf stats %+v diverged from primary %+v", ls, ps)
	}
}

// TestSplitAddrs pins the replica-group address syntax.
func TestSplitAddrs(t *testing.T) {
	got := remote.SplitAddrs(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("SplitAddrs = %v, want %v", got, want)
	}
	if out := remote.SplitAddrs(""); len(out) != 0 {
		t.Errorf("SplitAddrs(\"\") = %v, want empty", out)
	}
}

// TestStartValidation locks down Config validation errors.
func TestStartValidation(t *testing.T) {
	e := newEnv(t, "A")
	w := e.wallet("A", nil)
	cases := []Config{
		{},
		{Local: w},
		{Local: w, Addrs: []string{"x"}},
	}
	for i, cfg := range cases {
		if _, err := Start(cfg); err == nil {
			t.Errorf("case %d: Start accepted invalid config", i)
		} else if errors.Is(err, context.Canceled) {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
	}
}

// errDiskFull is what failingJournal's removals report.
var errDiskFull = errors.New("disk full")

// failingJournal is a log store whose revocation and delete appends fail, the
// way they do on a full disk: puts reach the journal, removals do not, so the
// journal lags the wallet's memory.
type failingJournal struct{ *logstore.Store }

func (failingJournal) AddRevocation(uint64, core.DelegationID, time.Time) (bool, error) {
	return false, errDiskFull
}

func (failingJournal) DeleteDelegation(uint64, core.DelegationID) error { return errDiskFull }

// logPrimary is BigISP's wallet journaled to a fresh log store, wrapped by
// journal when it is non-nil.
func (e *env) logPrimary(journal func(*logstore.Store) wallet.Store) *wallet.Wallet {
	e.t.Helper()
	st, err := logstore.Open(filepath.Join(e.t.TempDir(), "log"), logstore.Options{CompactInterval: -1})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { _ = st.Close() })
	var j wallet.Store = st
	if journal != nil {
		j = journal(st)
	}
	return wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir, Store: j})
}

// mirror serves primary, bootstraps a follower from it, and requires the
// follower to equal the primary's memory: the same delegations with the
// same support, the same revocations, at the primary's seq.
func (e *env) mirror(primary *wallet.Wallet) *wallet.Wallet {
	e.t.Helper()
	e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})
	f, fw := e.follower("Replica", []string{"primary"}, nil, nil)
	waitFor(e.t, "bootstrap", func() bool {
		return f.Status().Connected && f.Status().AppliedSeq == primary.Seq()
	})
	if got, want := state(fw), state(primary); got != want {
		e.t.Errorf("follower at seq %d is not the primary's memory\n--- follower ---\n%s\n--- primary ---\n%s",
			f.Status().AppliedSeq, got, want)
	}
	return fw
}

// TestFollowerMirrorsMemoryWhenJournalLags: a revocation whose journal
// appends failed is still in force on the primary, and a follower that
// bootstraps afterwards must hold it too. The stream has moved past that
// seq, so a follower that missed it at bootstrap would never learn it.
func TestFollowerMirrorsMemoryWhenJournalLags(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.logPrimary(func(st *logstore.Store) wallet.Store { return failingJournal{st} })
	gone, kept := e.deleg("[Maria -> BigISP.member] BigISP"), e.deleg("[Maria -> BigISP.user] BigISP")
	for _, d := range []*core.Delegation{gone, kept} {
		if err := primary.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Revoke(gone.ID(), e.id("BigISP").ID()); !errors.Is(err, errDiskFull) {
		t.Fatalf("Revoke over a full disk: err = %v, want it reported", err)
	}
	if !primary.IsRevoked(gone.ID()) || primary.Contains(gone.ID()) {
		t.Fatal("the revocation is not in force on the primary")
	}
	fw := e.mirror(primary)
	if !fw.IsRevoked(gone.ID()) || fw.Contains(gone.ID()) {
		t.Fatalf("follower holds the revoked delegation: revoked %v, held %v", fw.IsRevoked(gone.ID()), fw.Contains(gone.ID()))
	}
}

// TestFollowerHoldsCachedCopies: a TTL-cached copy is never journaled, but it
// is in the primary's memory and in its snapshot (SPEC §9.1), so a follower
// bootstrapped from a log-store primary holds it as a stream-fed one does.
func TestFollowerHoldsCachedCopies(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.logPrimary(nil)
	cached := e.deleg("[Maria -> BigISP.guest] BigISP")
	if err := primary.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	if err := primary.InsertCached(cached, nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	if fw := e.mirror(primary); !fw.Contains(cached.ID()) {
		t.Fatal("follower lacks the primary's cached copy")
	}
}

// TestResyncClearsLag: the lag gauge is the age of the last applied event
// when it was applied. A resync installs the upstream's state as of now, so
// afterwards nothing is late and the gauge reads 0 — not the age of the
// event before the gap, which an idle primary would never overwrite and
// /readyz would keep reporting.
func TestResyncClearsLag(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Replica")
	primary := e.wallet("BigISP", nil)
	e.serve("primary", "BigISP", primary, remote.Options{Role: "primary"})
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	fw := e.wallet("Replica", o)
	// The follower's clock runs an hour ahead of the primary's, so every
	// event it applies from the stream is an hour old.
	f, err := Start(Config{
		Local: fw, Addrs: []string{"primary"}, Dialer: e.net.Dialer(e.id("Replica")), Obs: o,
		Clock: clock.NewFake(testStart.Add(time.Hour)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	waitFor(t, "live stream", func() bool { return f.Status().Connected })

	late := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := primary.Publish(late); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "late event applied", func() bool { return fw.Contains(late.ID()) })
	if lag := f.Status().LagSeconds; lag != 3600 {
		t.Fatalf("lag after an hour-old event = %ds, want 3600", lag)
	}

	// Fake a gap: pretend the follower missed an event, so the next push
	// forces a resync.
	f.applied.Store(f.applied.Load() - 1)
	if err := primary.Publish(e.deleg("[Maria -> BigISP.user] BigISP")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gap resync", func() bool { return f.Status().Resyncs == 1 && converged(primary, fw, f) })
	if lag := f.Status().LagSeconds; lag != 0 {
		t.Errorf("lag after the resync = %ds, want 0", lag)
	}
	if g := reg.Snapshot().Gauges["drbac_replica_lag_seconds"]; g != 0 {
		t.Errorf("drbac_replica_lag_seconds after the resync = %d, want 0", g)
	}
}
