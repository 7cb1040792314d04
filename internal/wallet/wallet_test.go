package wallet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/subs"
)

var testStart = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// env provides identities, a fake clock, and a wallet under test.
type env struct {
	t   *testing.T
	ids map[string]*core.Identity
	dir *core.MemDirectory
	clk *clock.Fake
}

func newEnv(t *testing.T, names ...string) *env {
	t.Helper()
	e := &env{
		t:   t,
		ids: make(map[string]*core.Identity),
		dir: core.NewDirectory(),
		clk: clock.NewFake(testStart),
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

func (e *env) wallet(cfg Config) *Wallet {
	if cfg.Clock == nil {
		cfg.Clock = e.clk
	}
	if cfg.Directory == nil {
		cfg.Directory = e.dir
	}
	return New(cfg)
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

func (e *env) role(text string) core.Role {
	e.t.Helper()
	r, err := core.ParseRole(text, e.dir)
	if err != nil {
		e.t.Fatalf("role %q: %v", text, err)
	}
	return r
}

func (e *env) subject(text string) core.Subject {
	e.t.Helper()
	s, err := core.ParseSubject(text, e.dir)
	if err != nil {
		e.t.Fatalf("subject %q: %v", text, err)
	}
	return s
}

// publishTable1 stores the Table 1 delegations: (1) and (2) self-certified,
// (3) third-party with its support proof.
func (e *env) publishTable1(w *Wallet) (d1, d2, d3 *core.Delegation) {
	e.t.Helper()
	d1 = e.deleg("[Mark -> BigISP.memberServices] BigISP")
	d2 = e.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")
	d3 = e.deleg("[Maria -> BigISP.member] Mark")
	if err := w.Publish(d1); err != nil {
		e.t.Fatalf("publish d1: %v", err)
	}
	if err := w.Publish(d2); err != nil {
		e.t.Fatalf("publish d2: %v", err)
	}
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		e.t.Fatal(err)
	}
	if err := w.Publish(d3, sup); err != nil {
		e.t.Fatalf("publish d3: %v", err)
	}
	return d1, d2, d3
}

func TestPublishAndDirectQuery(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := e.wallet(Config{})
	e.publishTable1(w)

	p, err := w.QueryDirect(Query{
		Subject: e.subject("Maria"),
		Object:  e.role("BigISP.member"),
	})
	if err != nil {
		t.Fatalf("QueryDirect: %v", err)
	}
	if p.Len() != 1 || len(p.Steps[0].Support) == 0 {
		t.Fatalf("proof shape: len=%d support=%d", p.Len(), len(p.Steps[0].Support))
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestPublishRejectsBadSignature(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	d.Object.Name = "admin" // tamper
	if err := w.Publish(d); err == nil {
		t.Fatal("tampered delegation accepted")
	}
	if w.Len() != 0 {
		t.Fatal("tampered delegation stored")
	}
}

func TestPublishRejectsThirdPartyWithoutSupport(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := e.wallet(Config{})
	d3 := e.deleg("[Maria -> BigISP.member] Mark")
	err := w.Publish(d3)
	var missing *core.MissingSupportError
	if !errors.As(err, &missing) {
		t.Fatalf("want MissingSupportError, got %v", err)
	}
}

func TestPublishDerivesSupportFromOwnGraph(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := e.wallet(Config{})
	// Store the authorizing delegations first; then the third-party
	// delegation needs no explicit support because the wallet can derive
	// the chain itself.
	if err := w.Publish(e.deleg("[Mark -> BigISP.memberServices] BigISP")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] Mark")); err != nil {
		t.Fatalf("wallet should derive support from its own graph: %v", err)
	}
}

func TestPublishRejectsExpired(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP <expiry:2026-07-06T12:30:00Z>")
	e.clk.Advance(time.Hour)
	if err := w.Publish(d); err == nil {
		t.Fatal("expired delegation accepted")
	}
}

func TestPublishIdempotent(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(d); err != nil {
		t.Fatalf("re-publish should be a no-op: %v", err)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestQueryDirectNoProof(t *testing.T) {
	e := newEnv(t, "BigISP", "AirNet", "Maria")
	w := e.wallet(Config{})
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	_, err := w.QueryDirect(Query{Subject: e.subject("Maria"), Object: e.role("AirNet.access")})
	if !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("want ErrNoProof, got %v", err)
	}
}

// A bidirectional search keeps one parent edge per node, so it misses the
// proof below, which needs the unlimited one of two parallel r1 -> r3 edges.
// Its miss is not exhaustive and must not be memoized as a negative that
// denies the forward query for the same (subject, object, constraints).
func TestBidirectionalMissIsNotMemoized(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	for _, text := range []string{
		"[Maria -> BigISP.r1] BigISP",
		"[BigISP.r1 -> BigISP.r3] BigISP <depth:1>",
		"[BigISP.r1 -> BigISP.r3] BigISP",
		"[BigISP.r3 -> BigISP.r2] BigISP",
		"[BigISP.r2 -> BigISP.goal] BigISP",
	} {
		if err := w.Publish(e.deleg(text)); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.goal"), Direction: graph.Bidirectional}
	if _, err := w.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("bidirectional query: err = %v, want ErrNoProof (the miss this test relies on)", err)
	}
	q.Direction = graph.Forward
	p, err := w.QueryDirect(q)
	if err != nil {
		t.Fatalf("forward query after a bidirectional miss: %v", err)
	}
	if p.Len() != 4 {
		t.Fatalf("forward proof has %d steps, want 4", p.Len())
	}
}

func TestQuerySubjectAndObject(t *testing.T) {
	e := newEnv(t, "BigISP", "AirNet", "Maria")
	w := e.wallet(Config{})
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[BigISP.member -> AirNet.member] AirNet")); err != nil {
		t.Fatal(err)
	}
	subjProofs := w.QuerySubject(e.subject("Maria"), nil)
	if len(subjProofs) != 2 {
		t.Fatalf("QuerySubject = %d proofs, want 2", len(subjProofs))
	}
	objProofs := w.QueryObject(e.role("AirNet.member"), nil)
	if len(objProofs) != 2 {
		t.Fatalf("QueryObject = %d proofs, want 2 (role chain + Maria chain)", len(objProofs))
	}
}

func TestRevokeByIssuerOnly(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	if err := w.Revoke(d.ID(), e.id("Mark").ID()); err == nil {
		t.Fatal("non-issuer revocation accepted")
	}
	if err := w.Revoke(d.ID(), e.id("BigISP").ID()); err != nil {
		t.Fatalf("issuer revocation failed: %v", err)
	}
	if !w.IsRevoked(d.ID()) || w.Contains(d.ID()) {
		t.Fatal("revocation not applied")
	}
	_, err := w.QueryDirect(Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")})
	if !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("revoked delegation still proves: %v", err)
	}
	// Republishing a revoked delegation must fail.
	if err := w.Publish(d); err == nil {
		t.Fatal("revoked delegation re-accepted")
	}
}

func TestRevokeUnknownDelegation(t *testing.T) {
	e := newEnv(t, "BigISP")
	w := e.wallet(Config{})
	if err := w.Revoke("deadbeef", e.id("BigISP").ID()); err == nil {
		t.Fatal("revoking unknown delegation should error")
	}
}

func TestRevocationNotifiesSubscribers(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	var events []string
	cancel := w.Subscribe(d.ID(), func(ev subs.Event) { events = append(events, ev.Kind.String()) })
	defer cancel()
	if err := w.Revoke(d.ID(), e.id("BigISP").ID()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0] != "revoked" {
		t.Fatalf("events = %v", events)
	}
}

func TestSweepExpiredNotifies(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP <expiry:2026-07-06T12:30:00Z>")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	fired := 0
	cancel := w.Subscribe(d.ID(), func(ev subs.Event) {
		if ev.Kind.String() == "expired" {
			fired++
		}
	})
	defer cancel()
	if n := w.SweepExpired(); n != 0 {
		t.Fatalf("premature sweep removed %d", n)
	}
	e.clk.Advance(time.Hour)
	if n := w.SweepExpired(); n != 1 {
		t.Fatalf("sweep removed %d, want 1", n)
	}
	if fired != 1 {
		t.Fatalf("expired events = %d", fired)
	}
	if w.Contains(d.ID()) {
		t.Fatal("expired delegation still stored")
	}
}

func TestCacheTTLStaleness(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.InsertCached(d, nil, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if w.CachedCount() != 1 {
		t.Fatalf("CachedCount = %d", w.CachedCount())
	}
	staleSeen := 0
	cancel := w.Subscribe(d.ID(), func(ev subs.Event) {
		if ev.Kind.String() == "stale" {
			staleSeen++
		}
	})
	defer cancel()

	// Renew within TTL: stays fresh.
	e.clk.Advance(20 * time.Second)
	if !w.RenewCached(d.ID(), 30*time.Second) {
		t.Fatal("RenewCached = false")
	}
	e.clk.Advance(20 * time.Second)
	if n := w.SweepStaleCache(); n != 0 {
		t.Fatalf("fresh entry swept: %d", n)
	}

	// Let it lapse.
	e.clk.Advance(time.Minute)
	if n := w.SweepStaleCache(); n != 1 {
		t.Fatalf("stale sweep removed %d, want 1", n)
	}
	if staleSeen != 1 {
		t.Fatalf("stale events = %d", staleSeen)
	}
	if w.Contains(d.ID()) {
		t.Fatal("stale cached delegation still queryable")
	}
	if w.RenewCached(d.ID(), time.Second) {
		t.Fatal("renewing a swept entry should report false")
	}
}

func TestInsertCachedZeroTTLIsPermanent(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.InsertCached(d, nil, 0); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(24 * time.Hour)
	if n := w.SweepStaleCache(); n != 0 {
		t.Fatalf("zero-TTL entry swept: %d", n)
	}
	if !w.Contains(d.ID()) {
		t.Fatal("zero-TTL delegation missing")
	}
}

func TestQueryWithConstraints(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria")
	w := e.wallet(Config{})
	if err := w.Publish(e.deleg("[Maria -> AirNet.access with AirNet.BW <= 100] AirNet")); err != nil {
		t.Fatal(err)
	}
	bw := core.AttributeRef{Namespace: e.id("AirNet").ID(), Name: "BW"}
	if _, err := w.QueryDirect(Query{
		Subject:     e.subject("Maria"),
		Object:      e.role("AirNet.access"),
		Constraints: []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 100}},
	}); err != nil {
		t.Fatalf("satisfiable: %v", err)
	}
	if _, err := w.QueryDirect(Query{
		Subject:     e.subject("Maria"),
		Object:      e.role("AirNet.access"),
		Constraints: []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 101}},
	}); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("unsatisfiable: want ErrNoProof, got %v", err)
	}
}

func TestStrictAttributesPublish(t *testing.T) {
	e := newEnv(t, "BigISP", "AirNet", "Sheila")
	w := e.wallet(Config{StrictAttributes: true})
	// Sheila needs AirNet.member' AND AirNet.BW<=' to publish this.
	if err := w.Publish(e.deleg("[Sheila -> AirNet.mktg] AirNet")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[AirNet.mktg -> AirNet.member'] AirNet")); err != nil {
		t.Fatal(err)
	}
	d := e.deleg("[BigISP.member -> AirNet.member with AirNet.BW <= 100] Sheila")
	if err := w.Publish(d); err == nil {
		t.Fatal("strict wallet accepted delegation without attribute right")
	}
	if err := w.Publish(e.deleg("[AirNet.mktg -> AirNet.BW <= '] AirNet")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(d); err != nil {
		t.Fatalf("with attribute right: %v", err)
	}
}

func TestWatchForFiresOnPublication(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	var got *core.Proof
	cancel := w.WatchFor(q, func(p *core.Proof) { got = p })
	defer cancel()
	if got != nil {
		t.Fatal("watch fired before proof existed")
	}
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("watch did not fire on publication")
	}
}

func TestWatchForFiresImmediatelyIfProofExists(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	fired := false
	cancel := w.WatchFor(Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")},
		func(*core.Proof) { fired = true })
	defer cancel()
	if !fired {
		t.Fatal("watch should fire synchronously when a proof exists")
	}
}

func TestWatchForCancel(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	fired := false
	cancel := w.WatchFor(Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")},
		func(*core.Proof) { fired = true })
	cancel()
	cancel() // idempotent
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled watch fired")
	}
}

func TestQueryDirectionStats(t *testing.T) {
	e := newEnv(t, "A", "M")
	w := e.wallet(Config{})
	if err := w.Publish(e.deleg("[M -> A.x] A")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[A.x -> A.y] A")); err != nil {
		t.Fatal(err)
	}
	var st graph.Stats
	if _, err := w.QueryDirect(Query{
		Subject:   e.subject("M"),
		Object:    e.role("A.y"),
		Direction: graph.Bidirectional,
		Stats:     &st,
	}); err != nil {
		t.Fatal(err)
	}
	if st.EdgesExplored == 0 {
		t.Fatal("stats not accumulated")
	}
}

func TestFigure1WalletStructure(t *testing.T) {
	// Figure 1: a wallet holding two delegations that support a trust
	// relationship between A and C.c: [A -> B.b] B and [B.b -> C.c] C.
	e := newEnv(t, "A", "B", "C")
	w := e.wallet(Config{})
	if err := w.Publish(e.deleg("[A -> B.b] B")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[B.b -> C.c] C")); err != nil {
		t.Fatal(err)
	}

	// Direct query: A => C.c.
	p, err := w.QueryDirect(Query{Subject: e.subject("A"), Object: e.role("C.c")})
	if err != nil {
		t.Fatalf("direct query: %v", err)
	}
	if p.Len() != 2 {
		t.Fatalf("proof length = %d", p.Len())
	}
	// Subject query: A => *.
	if got := len(w.QuerySubject(e.subject("A"), nil)); got != 2 {
		t.Fatalf("subject query = %d proofs", got)
	}
	// Object query: * => C.c.
	if got := len(w.QueryObject(e.role("C.c"), nil)); got != 2 {
		t.Fatalf("object query = %d proofs", got)
	}
	// Proof monitor with callback (Figure 1's monitor interface).
	var events []MonitorEvent
	mon, err := w.Monitor(Query{Subject: e.subject("A"), Object: e.role("C.c")},
		func(ev MonitorEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if !mon.Valid() || mon.Proof() == nil {
		t.Fatal("fresh monitor should be valid")
	}
}

// Concurrent publishers, queriers, revokers, and monitors must not race or
// deadlock (run with -race).
func TestConcurrentWalletOperations(t *testing.T) {
	e := newEnv(t, "Org", "User")
	w := e.wallet(Config{Clock: clock.System{}})
	org := e.id("Org")
	user := e.id("User")
	userEnt := user.Entity()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				d, err := core.Issue(org, core.Template{
					Subject:       core.SubjectEntity(user.ID()),
					SubjectEntity: &userEnt,
					Object:        core.NewRole(org.ID(), fmt.Sprintf("w%d", i)),
				}, time.Now())
				if err != nil {
					errs <- err
					return
				}
				if err := w.Publish(d); err != nil {
					errs <- err
					return
				}
				if j%3 == 0 {
					if err := w.Revoke(d.ID(), org.ID()); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, _ = w.QueryDirect(Query{
					Subject: core.SubjectEntity(user.ID()),
					Object:  core.NewRole(org.ID(), fmt.Sprintf("w%d", i)),
				})
				_ = w.QuerySubject(core.SubjectEntity(user.ID()), nil)
				w.SweepExpired()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				mon, err := w.Monitor(Query{
					Subject: core.SubjectEntity(user.ID()),
					Object:  core.NewRole(org.ID(), fmt.Sprintf("w%d", i)),
				}, func(MonitorEvent) {})
				if err == nil {
					mon.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConfigMaxDepthBoundsProofs(t *testing.T) {
	e := newEnv(t, "Org", "User")
	w := e.wallet(Config{MaxDepth: 2})
	if err := w.Publish(e.deleg("[User -> Org.a] Org")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[Org.a -> Org.b] Org")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(e.deleg("[Org.b -> Org.c] Org")); err != nil {
		t.Fatal(err)
	}
	// Two hops fit; three exceed the configured bound.
	if _, err := w.QueryDirect(Query{Subject: e.subject("User"), Object: e.role("Org.b")}); err != nil {
		t.Fatalf("two-hop proof within MaxDepth: %v", err)
	}
	if _, err := w.QueryDirect(Query{Subject: e.subject("User"), Object: e.role("Org.c")}); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("three-hop proof should exceed MaxDepth=2: %v", err)
	}
}

func TestConfigMaxProofsBoundsEnumeration(t *testing.T) {
	e := newEnv(t, "Org", "User")
	w := e.wallet(Config{MaxProofs: 3})
	for i := 0; i < 10; i++ {
		if err := w.Publish(e.deleg(fmt.Sprintf("[User -> Org.r%d] Org", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(w.QuerySubject(e.subject("User"), nil)); got != 3 {
		t.Fatalf("QuerySubject returned %d proofs, want MaxProofs=3", got)
	}
}

// A revocation or an expiry that lands between the wallet's search and its
// validation means the proof has stopped existing: the error must match
// core.ErrNoProof (so servers count a denial, not a fault, and clients see
// NoProof) while still naming its cause. Any other validation failure stays
// a plain error. Nothing is served in any of the cases.
func TestValidationRaceReadsAsNoProof(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	id := core.DelegationID("0123456789abcdef")
	for _, tc := range []struct {
		name    string
		err     error
		noProof bool
		cause   func(error) bool
	}{
		{"revoked step", &core.RevokedError{ID: id}, true,
			func(err error) bool { return errors.Is(err, core.ErrRevoked) }},
		{"revoked inside a support proof", fmt.Errorf("support proof for x: %w", &core.RevokedError{ID: id}), true,
			func(err error) bool { return errors.Is(err, core.ErrRevoked) }},
		{"expired step", &core.ExpiredError{ID: id, Expiry: testStart, At: testStart.Add(time.Second)}, true,
			func(err error) bool { var ex *core.ExpiredError; return errors.As(err, &ex) && ex.ID == id }},
		{"broken chain", &core.ChainError{Index: 1, Reason: "gap"}, false,
			func(err error) bool { var ce *core.ChainError; return errors.As(err, &ce) }},
		{"recursion limit", core.ErrProofDepth, false,
			func(err error) bool { return errors.Is(err, core.ErrProofDepth) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validationFailure(tc.err)
			if got := errors.Is(err, core.ErrNoProof); got != tc.noProof {
				t.Errorf("errors.Is(%q, ErrNoProof) = %v, want %v", err, got, tc.noProof)
			}
			if !tc.cause(err) {
				t.Errorf("%q lost its cause", err)
			}
		})
	}

	// End to end through QueryDirect, with the revoked set gaining the ID
	// and the graph not having heard of it: the state a query sees when a
	// revoke lands after its search and before its validation.
	t.Run("revoke lands after the search", func(t *testing.T) {
		w := e.wallet(Config{})
		_, _, d3 := e.publishTable1(w)
		q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
		flip := func(revoked bool) {
			w.revMu.Lock()
			defer w.revMu.Unlock()
			if revoked {
				w.revoked[d3.ID()] = w.Now()
			} else {
				delete(w.revoked, d3.ID())
			}
		}
		flip(true)
		p, err := w.QueryDirect(q)
		if p != nil || !errors.Is(err, core.ErrNoProof) || !errors.Is(err, core.ErrRevoked) {
			t.Fatalf("QueryDirect = (%v, %v), want no proof, matching ErrNoProof and ErrRevoked", p, err)
		}
		// The denial was not memoized as a negative: with the flip undone
		// the same question is answered again.
		flip(false)
		if _, err := w.QueryDirect(q); err != nil {
			t.Fatalf("QueryDirect after the flip is undone: %v", err)
		}
	})
}
