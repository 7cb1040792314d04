// Package discovery implements dRBAC's distributed delegation-chain
// discovery (§4.2.1): a parallel breadth-first search across wallet homes,
// directed by discovery tags, that pulls the missing sub-proofs into the
// local trusted wallet until a full proof of the queried trust relationship
// can be assembled — searching subject-towards-object, object-towards-
// subject, or bidirectionally.
package discovery

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// Mode selects the search direction across wallets (§4.2.3).
type Mode int

const (
	// Auto follows discovery-tag flags: forward where subjects are
	// searchable, reverse where objects are, both when both allow it.
	Auto Mode = iota
	// ForwardOnly searches subject-towards-object regardless of tags.
	ForwardOnly
	// ReverseOnly searches object-towards-subject regardless of tags.
	ReverseOnly
)

// Config parameterizes a discovery agent.
type Config struct {
	// Local is the trusted wallet fetched credentials are inserted into.
	Local *wallet.Wallet
	// Dialer opens authenticated connections to wallet homes. Ignored when
	// Peers is set.
	Dialer transport.Dialer
	// Peers, if non-nil, is a shared connection pool the agent uses instead
	// of building its own over Dialer. The caller owns its lifecycle.
	Peers *peer.Manager
	// VerifyHomes requires each home wallet to prove it holds the
	// discovery tag's authorization role before it is trusted (§4.2.1).
	VerifyHomes bool
	// DisableRangeAdjustment turns off the §4.2.3 modulated-attribute-range
	// optimization (remote queries then carry the original constraints).
	// Ablation switch for EXP-S2b.
	DisableRangeAdjustment bool
	// Homes, if non-nil, places the nodes the tag book has no entry for: a
	// learned tag always wins, Homes is the one fallback. A cluster gateway
	// sets its shard router here, a DHT participant its DHT node.
	Homes Homes
	// Obs, if non-nil, receives discovery metrics and spans: each Discover
	// runs under a trace ID (minted here unless the query already carries
	// one) that also propagates to every wallet home it queries, so one
	// cross-wallet discovery reads as a single trace. When nil, the local
	// wallet's own Obs is used instead.
	Obs *obs.Obs
}

// maxRounds bounds the breadth-first rounds of a discovery.
const maxRounds = 16

// Homes answers "where does this graph node live" for nodes no credential
// has tagged yet: the addresses of the node's home wallet (a replica group
// when more than one). An error or an empty answer means "no home known" —
// the node is then simply not searched, never dialed blind.
type Homes interface {
	Home(ctx context.Context, node core.Subject) ([]string, error)
}

// placedTagTTL is the cache TTL of the tag synthesized from a Homes answer,
// and so of credentials fetched from homes found that way. Kept short: a
// placement is only as fresh as the shard map or provider record behind it,
// so cached copies re-confirm sooner than those from published tags would.
const placedTagTTL = 30 * time.Second

// TraceEvent records one remote interaction for tests and experiments.
type TraceEvent struct {
	Round   int
	Wallet  string
	Kind    string // "direct", "subject", "object"
	Node    string
	Results int
}

// Stats accumulates discovery effort, the currency of the §4.2.3
// experiments.
type Stats struct {
	Rounds             int
	WalletsContacted   int
	RemoteQueries      int
	DelegationsFetched int
	Trace              []TraceEvent
}

// agentMetrics holds the agent's pre-resolved instruments; the zero value
// is inert (nil instruments no-op).
type agentMetrics struct {
	discoveries   *obs.Counter
	found         *obs.Counter
	rounds        *obs.Counter
	remoteQueries *obs.Counter
	fetched       *obs.Counter
	contacted     *obs.Counter
	latency       *obs.Histogram
}

func newAgentMetrics(o *obs.Obs) agentMetrics {
	if o.Registry() == nil {
		return agentMetrics{}
	}
	return agentMetrics{
		discoveries:   o.Counter("drbac_discovery_total"),
		found:         o.Counter("drbac_discovery_found_total"),
		rounds:        o.Counter("drbac_discovery_rounds_total"),
		remoteQueries: o.Counter("drbac_discovery_remote_queries_total"),
		fetched:       o.Counter("drbac_discovery_delegations_fetched_total"),
		contacted:     o.Counter("drbac_discovery_wallets_contacted_total"),
		latency:       o.Histogram("drbac_discovery_seconds"),
	}
}

// Agent performs distributed discovery against a local wallet. It learns
// discovery tags from every credential it sees and caches connections to
// wallet homes.
type Agent struct {
	cfg Config
	obs *obs.Obs
	m   agentMetrics
	// peers pools connections to wallet homes with backoff and circuit
	// breaking; ownsPeers records whether Close should tear it down.
	peers     *peer.Manager
	ownsPeers bool

	mu sync.Mutex
	// tags is the agent's tag book: the home and flags for each graph node.
	tags map[core.Subject]core.DiscoveryTag
	// contacted dedupes the WalletsContacted stat across the agent's
	// lifetime (the pool may silently redial a flapping home many times).
	contacted map[string]bool
	// origin records which home a cached delegation came from, for
	// coherence subscriptions.
	origin map[core.DelegationID]string
	// verified remembers homes that passed the auth-role check.
	verified map[string]bool
}

// NewAgent builds a discovery agent over a local wallet.
func NewAgent(cfg Config) *Agent {
	o := cfg.Obs
	if o == nil && cfg.Local != nil {
		o = cfg.Local.Obs()
	}
	a := &Agent{
		cfg:       cfg,
		obs:       o,
		m:         newAgentMetrics(o),
		tags:      make(map[core.Subject]core.DiscoveryTag),
		contacted: make(map[string]bool),
		origin:    make(map[core.DelegationID]string),
		verified:  make(map[string]bool),
	}
	if cfg.Peers != nil {
		a.peers = cfg.Peers
	} else {
		a.peers = peer.NewManager(peer.Config{Dialer: cfg.Dialer, Obs: o})
		a.ownsPeers = true
	}
	return a
}

// Peers exposes the agent's connection pool, e.g. for health inspection.
func (a *Agent) Peers() *peer.Manager { return a.peers }

// Close drops all pooled connections (only when the agent owns the pool).
func (a *Agent) Close() {
	if a.ownsPeers {
		a.peers.Close()
	}
}

// RegisterTag seeds the agent's tag book, e.g. with the querying
// application's own knowledge of a role's home wallet.
func (a *Agent) RegisterTag(node core.Subject, tag core.DiscoveryTag) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tags[node] = tag.Normalize()
}

// tagFor is the one answer to "where does this node live": the tag book
// first, then Homes. A Homes answer becomes a searchable tag at those
// addresses, so Auto-mode discovery expands through placed nodes exactly as
// it would through published 'S'/'O' tags.
func (a *Agent) tagFor(ctx context.Context, node core.Subject) (core.DiscoveryTag, bool) {
	a.mu.Lock()
	t, ok := a.tags[node]
	a.mu.Unlock()
	if ok {
		return t, true
	}
	if a.cfg.Homes == nil {
		return core.DiscoveryTag{}, false
	}
	addrs, err := a.cfg.Homes.Home(ctx, node)
	if err != nil || len(addrs) == 0 {
		return core.DiscoveryTag{}, false
	}
	return core.DiscoveryTag{
		Home:    remote.JoinAddrs(addrs),
		TTL:     placedTagTTL,
		Subject: core.SubjectSearch,
		Object:  core.ObjectSearch,
	}, true
}

// Learn harvests discovery tags from a credential's annotations. The
// discovery rounds call it on every fetched credential; applications call
// it when credentials arrive out of band (e.g. Figure 2 step 1, where the
// user's software hands the server its membership delegation directly).
func (a *Agent) Learn(d *core.Delegation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d.SubjectTag != nil {
		a.tags[d.Subject] = d.SubjectTag.Normalize()
	}
	if d.ObjectTag != nil {
		a.tags[core.SubjectRole(d.Object)] = d.ObjectTag.Normalize()
	}
	if d.IssuerTag != nil {
		a.tags[core.SubjectEntity(d.Issuer.ID())] = d.IssuerTag.Normalize()
	}
}

// client returns a pooled connection to a wallet home, verifying its
// authorization role when configured. A tag home may be a comma-separated
// replica group ("primary,replica1,…" — §9); the pool fails over within the
// group, and the returned address identifies the member actually connected,
// for failure reporting. A home whose circuit is open fails fast without a
// dial attempt.
func (a *Agent) client(ctx context.Context, tag core.DiscoveryTag, stats *Stats) (*remote.Client, string, error) {
	c, addr, err := a.peers.GetAny(ctx, remote.SplitAddrs(tag.Home))
	if err != nil {
		if !errors.Is(err, peer.ErrCircuitOpen) {
			a.obs.Log().Warn("discovery dial failed", "home", tag.Home, "error", err)
		}
		return nil, "", fmt.Errorf("discovery: dial home %s: %w", tag.Home, err)
	}
	a.mu.Lock()
	first := !a.contacted[addr]
	a.contacted[addr] = true
	a.mu.Unlock()
	if first {
		a.obs.Log().Debug("discovery dialed home", "home", tag.Home, "addr", addr)
		if stats != nil {
			stats.WalletsContacted++
		}
	}
	if a.cfg.VerifyHomes && !tag.AuthRole.IsZero() {
		// Each group member proves the authorization role independently: a
		// replica is only trusted as the home's stand-in if the home's
		// operator delegated the auth role to the replica's identity.
		a.mu.Lock()
		done := a.verified[addr]
		a.mu.Unlock()
		if !done {
			if _, err := c.ProveRole(ctx, tag.AuthRole, a.cfg.Local.Now()); err != nil {
				a.peers.ReportFailure(addr, c)
				return nil, "", fmt.Errorf("discovery: home %s failed authorization: %w", addr, err)
			}
			a.mu.Lock()
			a.verified[addr] = true
			a.mu.Unlock()
		}
	}
	return c, addr, nil
}

// insertProofs stores fetched sub-proofs into the local wallet as TTL-
// coherent cached copies, learning tags along the way. Returns how many new
// delegations were stored.
func (a *Agent) insertProofs(proofs []*core.Proof, from string, ttl time.Duration, stats *Stats) int {
	// Pre-warm the wallet's signature memo across the whole fetched batch
	// (primary chains plus support proofs) in parallel; the per-delegation
	// InsertCached validations below then run warm.
	var batch []*core.Delegation
	for _, p := range proofs {
		batch = append(batch, p.Delegations()...)
	}
	core.PrimeDelegations(a.cfg.Local.SigVerifier(), batch)
	inserted := 0
	for _, p := range proofs {
		for _, st := range p.Steps {
			d := st.Delegation
			a.Learn(d)
			if a.cfg.Local.Contains(d.ID()) {
				continue
			}
			if err := a.cfg.Local.InsertCached(d, st.Support, ttl); err != nil {
				continue // invalid credential from remote: skip it
			}
			inserted++
			a.mu.Lock()
			a.origin[d.ID()] = from
			a.mu.Unlock()
			// Support-proof delegations are part of the credential too.
			for _, sp := range st.Support {
				for _, sd := range sp.Delegations() {
					a.Learn(sd)
				}
			}
		}
	}
	if stats != nil {
		stats.DelegationsFetched += inserted
	}
	return inserted
}

// Discover finds a proof for q, pulling missing credentials from wallet
// homes as directed by discovery tags. Fetched credentials are inserted
// into the local wallet (Figure 2, step 5) so the final proof is assembled
// locally. stats may be nil.
//
// Each Discover runs under a trace ID — q.TraceID, or one minted here —
// that the local wallet logs under and that every remote query carries, so
// the whole cross-wallet search reads as one trace.
//
// Cancellation of ctx aborts the search mid-flight: in-flight peer RPCs
// unwind, no further homes are dialed, and the context error is returned.
func (a *Agent) Discover(ctx context.Context, q wallet.Query, mode Mode, stats *Stats) (*core.Proof, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q.Ctx = ctx
	if q.TraceID == "" {
		q.TraceID = obs.NewTraceID()
	}
	// Accumulate effort even when the caller doesn't ask for it, so the
	// metrics registry sees every discovery.
	st := stats
	if st == nil {
		st = &Stats{}
	}
	a.m.discoveries.Inc()
	sp := a.obs.StartSpan(q.TraceID, "discover",
		"subject", q.Subject.String(), "object", q.Object.String())
	// Carry the span in the context so layers below without a span
	// parameter (peer dials in particular) parent their work under it.
	ctx = obs.ContextWithSpan(ctx, sp)
	q.Ctx = ctx
	p, err := a.discover(ctx, q, mode, st, sp)
	d := sp.End("found", err == nil,
		"rounds", st.Rounds, "remote_queries", st.RemoteQueries, "fetched", st.DelegationsFetched)
	if thr := a.obs.SlowThreshold(); thr > 0 && d >= thr {
		// Slow-query capture: the trace itself is retained by the
		// collector's tail sampling; this Warn record makes it visible in
		// the logs with the search-effort attributes attached.
		a.obs.Log().Warn("slow discovery",
			"trace", q.TraceID,
			"subject", q.Subject.String(), "object", q.Object.String(),
			"found", err == nil,
			"rounds", st.Rounds,
			"remote_queries", st.RemoteQueries,
			"wallets_contacted", st.WalletsContacted,
			"fetched", st.DelegationsFetched,
			"duration_ms", float64(d.Microseconds())/1000)
	}
	a.m.latency.Observe(d.Seconds())
	if err == nil {
		a.m.found.Inc()
	}
	a.m.rounds.Add(int64(st.Rounds))
	a.m.remoteQueries.Add(int64(st.RemoteQueries))
	a.m.fetched.Add(int64(st.DelegationsFetched))
	a.m.contacted.Add(int64(st.WalletsContacted))
	return p, err
}

func (a *Agent) discover(ctx context.Context, q wallet.Query, mode Mode, stats *Stats, sp *obs.Span) (*core.Proof, error) {
	// Step: try locally first (Figure 2, step 2).
	if p, err := a.cfg.Local.QueryDirect(q); err == nil {
		sp.Event("local hit")
		return p, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The directions this mode searches: false = forward, true = reverse.
	dirs := []bool{false, true}
	switch mode {
	case ForwardOnly:
		dirs = dirs[:1]
	case ReverseOnly:
		dirs = dirs[1:]
	}
	queried := make(map[visit]bool)

	for round := 1; round <= maxRounds; round++ {
		stats.Rounds = round
		progress := 0
		for _, reverse := range dirs {
			n, found, err := a.searchRound(ctx, q, mode, reverse, round, queried, stats, sp)
			progress += n
			if err != nil {
				return nil, err
			}
			if found != nil {
				return found, nil
			}
		}
		// Re-check locally after each round: the two frontiers may have
		// met in the middle.
		if p, err := a.cfg.Local.QueryDirect(q); err == nil {
			return p, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if progress == 0 {
			break
		}
	}
	return nil, core.ErrNoProof
}

// traceCtx carries one remote query's trace position to the client: the rpc
// child span when tracing is on, or just the bare trace ID so remote logs
// still correlate when the agent has no Obs.
func traceCtx(ctx context.Context, rsp *obs.Span, traceID string) context.Context {
	if rsp == nil {
		return obs.ContextWithTrace(ctx, obs.TraceContext{TraceID: traceID})
	}
	return obs.ContextWithSpan(ctx, rsp)
}

// finishRPC closes an rpc child span, recording transport failures (a
// no-proof answer is a normal outcome, not a failure).
func finishRPC(rsp *obs.Span, err error) {
	if rsp == nil {
		return
	}
	if err != nil && !errors.Is(err, core.ErrNoProof) {
		rsp.Fail(err)
	}
	rsp.End("ok", err == nil)
}

// visit is one frontier node queried from one direction; each gets a single
// query budget per discovery.
type visit struct {
	node    core.Subject
	reverse bool
}

// searchRound expands one frontier by one breadth-first step. Forward, the
// frontier is every node currently reachable from the query subject; reverse,
// every role the query object is currently reachable from. Each frontier node
// whose tag allows search from that side gets one direct query and, failing
// that, one subject (forward) or object (reverse) query at its home wallet.
// Queries carry constraints adjusted by the locally known partial chains'
// modifiers (§4.2.3 "modulated attribute ranges"), so remote wallets prune
// continuations the accumulated chain can no longer afford.
func (a *Agent) searchRound(ctx context.Context, q wallet.Query, mode Mode, reverse bool, round int, queried map[visit]bool, stats *Stats, sp *obs.Span) (int, *core.Proof, error) {
	kind, rpc := "subject", "rpc:subject"
	frontier := []core.Subject{q.Subject}
	var known []*core.Proof // the partial chains the local wallet already holds
	if reverse {
		kind, rpc = "object", "rpc:object"
		frontier[0] = core.SubjectRole(q.Object)
		known = a.cfg.Local.QueryObject(q.Object, nil)
	} else {
		known = a.cfg.Local.QuerySubject(q.Subject, nil)
	}
	partials := make(map[core.Subject][]core.Aggregate)
	for _, p := range known {
		node := core.SubjectRole(p.Object)
		if reverse {
			if p.Subject.IsEntity() {
				continue
			}
			node = core.SubjectRole(p.Subject.Role)
		}
		frontier = append(frontier, node)
		if ag, err := p.Aggregate(); err == nil {
			partials[node] = append(partials[node], ag)
		}
	}
	progress := 0
	for _, node := range frontier {
		if err := ctx.Err(); err != nil {
			return progress, nil, err
		}
		v := visit{node, reverse}
		if queried[v] {
			continue
		}
		tag, ok := a.tagFor(ctx, node)
		if !ok {
			continue
		}
		searchable := tag.Subject == core.SubjectSearch || tag.Subject == core.SubjectStore
		if reverse {
			searchable = tag.Object == core.ObjectSearch || tag.Object == core.ObjectStore
		}
		if mode == Auto && !searchable {
			continue
		}
		c, home, err := a.client(ctx, tag, stats)
		if err != nil {
			// The home is unreachable this round; leave the node unqueried
			// so a later round retries it once the peer recovers. Progress
			// elsewhere keeps the search alive meanwhile.
			continue
		}
		// Only a reachable home consumes the node's single query budget.
		queried[v] = true
		remaining := q.Constraints
		if !a.cfg.DisableRangeAdjustment {
			remaining = looseAdjust(q.Constraints, partials[node])
		}
		// Direct query for the original relationship with this node as its
		// near end.
		if stats != nil {
			stats.RemoteQueries++
		}
		subject, object := node, q.Object
		if reverse {
			subject, object = q.Subject, node.Role
		}
		rsp := sp.StartChild("rpc:direct", "wallet", home, "node", node.String())
		p, err := c.QueryDirect(traceCtx(ctx, rsp, q.TraceID), subject, object, remaining, 0)
		finishRPC(rsp, err)
		if err == nil {
			progress += a.insertProofs([]*core.Proof{p}, tag.Home, tag.TTL, stats)
			a.trace(sp, stats, round, home, "direct", node.String(), 1)
			if full, err := a.cfg.Local.QueryDirect(q); err == nil {
				return progress, full, nil
			}
			continue
		}
		if !errors.Is(err, core.ErrNoProof) {
			a.peers.ReportFailure(home, c)
			queried[v] = false // answer never arrived; retry next round
			continue
		}
		// Fall back to the one-ended query; its results root further search.
		if stats != nil {
			stats.RemoteQueries++
		}
		rsp = sp.StartChild(rpc, "wallet", home, "node", node.String())
		var proofs []*core.Proof
		if reverse {
			proofs, err = c.QueryObject(traceCtx(ctx, rsp, q.TraceID), node.Role, remaining)
		} else {
			proofs, err = c.QuerySubject(traceCtx(ctx, rsp, q.TraceID), node, remaining)
		}
		finishRPC(rsp, err)
		if err != nil {
			a.peers.ReportFailure(home, c)
			queried[v] = false
			continue
		}
		a.trace(sp, stats, round, home, kind, node.String(), len(proofs))
		progress += a.insertProofs(proofs, tag.Home, tag.TTL, stats)
	}
	return progress, nil, nil
}

// Bridge establishes delegation subscriptions at the home wallets of every
// remotely sourced delegation in p (Figure 2: the dotted inter-wallet
// subscription lines), keeping the local cached copies coherent: remote
// revocations and expirations invalidate the local copy, which in turn
// fires any local proof monitors; renewals extend the local TTL. It
// returns a cancel function releasing all subscriptions.
func (a *Agent) Bridge(ctx context.Context, p *core.Proof) (cancel func(), err error) {
	var cancels []func()
	release := func() {
		for _, c := range cancels {
			c()
		}
	}
	for _, d := range p.Delegations() {
		id := d.ID()
		a.mu.Lock()
		home, remoteSourced := a.origin[id]
		a.mu.Unlock()
		if !remoteSourced {
			continue
		}
		// The tag supplies the TTL; the recorded origin is authoritative
		// for where the credential was actually fetched.
		tag, _ := a.tagFor(ctx, d.Subject)
		tag.Home = home
		c, _, err := a.client(ctx, tag, nil)
		if err != nil {
			release()
			return nil, err
		}
		ttl := tag.TTL
		cancelOne, err := c.Subscribe(ctx, id, func(ev subs.Event) { a.cfg.Local.ApplyHomeEvent(ev, ttl) })
		if err != nil {
			release()
			return nil, err
		}
		cancels = append(cancels, cancelOne)
	}
	return release, nil
}

// KeepFresh starts a background loop that re-confirms every remotely
// cached delegation with its home wallet each interval (§4.2.1: a cached
// copy is valid for TTL after "validity confirmation from its home
// wallet"). A confirmed credential has its local TTL renewed; one the home
// no longer holds is marked revoked locally (the home removes credentials
// only on revocation or expiry, and either way the cached copy must go).
// The returned stop function is idempotent and waits for the loop to exit.
func (a *Agent) KeepFresh(interval time.Duration) (stop func()) {
	// stop cancels ctx, so a sweep waiting on a home (or on a cold Homes
	// lookup) unwinds instead of holding stop up.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-a.cfg.Local.Clock().After(interval):
				a.refreshOnce(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// refreshOnce runs one confirmation sweep over the origin-tracked cache.
func (a *Agent) refreshOnce(ctx context.Context) {
	a.mu.Lock()
	tracked := make(map[core.DelegationID]string, len(a.origin))
	for id, home := range a.origin {
		tracked[id] = home
	}
	a.mu.Unlock()

	for id, home := range tracked {
		d, _, ok := a.cfg.Local.Get(id)
		if !ok {
			a.mu.Lock()
			delete(a.origin, id)
			a.mu.Unlock()
			continue
		}
		tag, _ := a.tagFor(ctx, d.Subject)
		tag.Home = home
		c, _, err := a.client(ctx, tag, nil)
		if err != nil {
			continue // home unreachable: let the TTL lapse naturally
		}
		present, err := c.Has(ctx, id)
		if err != nil {
			continue
		}
		if present {
			a.cfg.Local.RenewCached(id, tag.TTL)
			continue
		}
		// The home dropped it: revoked or expired there; drop our copy.
		a.cfg.Local.AcceptRevocation(id)
		a.mu.Lock()
		delete(a.origin, id)
		a.mu.Unlock()
	}
}

// AuditFinding reports one delegation's registry status (§6: the paper
// suggests 'S'/'O' discovery flags can "require public registry of further
// delegation", giving coalitions an audit trail for re-delegation).
type AuditFinding struct {
	Delegation core.DelegationID
	// Home is the wallet that should hold the delegation ("" when no tag
	// demands registration).
	Home string
	// Required reports whether a store-required flag applies.
	Required bool
	// Registered reports whether the home wallet confirmed holding it
	// (meaningful only when Required).
	Registered bool
}

// AuditRegistry checks every delegation of a proof against the §6 registry
// discipline: a delegation whose subject carries a store-required subject
// flag ('s'/'S') must be present in the subject's home wallet, and one
// whose object carries a store-required object flag ('o'/'O') must be
// present in the object's home wallet. Off-registry delegations are the
// unauditable re-delegations the scheme exists to expose.
func (a *Agent) AuditRegistry(ctx context.Context, p *core.Proof) ([]AuditFinding, error) {
	var out []AuditFinding
	for _, d := range p.Delegations() {
		finding := AuditFinding{Delegation: d.ID()}
		var tag core.DiscoveryTag
		switch {
		case d.SubjectTag != nil &&
			(d.SubjectTag.Subject == core.SubjectStore || d.SubjectTag.Subject == core.SubjectSearch):
			tag = d.SubjectTag.Normalize()
		case d.ObjectTag != nil &&
			(d.ObjectTag.Object == core.ObjectStore || d.ObjectTag.Object == core.ObjectSearch):
			tag = d.ObjectTag.Normalize()
		default:
			out = append(out, finding)
			continue
		}
		finding.Required = true
		finding.Home = tag.Home
		c, _, err := a.client(ctx, tag, nil)
		if err != nil {
			return nil, fmt.Errorf("discovery: audit %s: %w", d.ID().Short(), err)
		}
		present, err := c.Has(ctx, d.ID())
		if err != nil {
			return nil, fmt.Errorf("discovery: audit %s: %w", d.ID().Short(), err)
		}
		finding.Registered = present
		out = append(out, finding)
	}
	return out, nil
}

// looseAdjust folds known partial-chain modifiers into the constraints the
// missing part of the chain must satisfy. With several known partial
// chains the *least* restrictive adjustment is used, so the remote wallet
// never prunes a continuation that could still combine with some local
// partial chain — soundness over maximal pruning.
func looseAdjust(constraints []core.Constraint, partials []core.Aggregate) []core.Constraint {
	if len(constraints) == 0 || len(partials) == 0 {
		return constraints
	}
	out := make([]core.Constraint, len(constraints))
	copy(out, constraints)
	for i, c := range constraints {
		best := math.Inf(-1)
		for _, ag := range partials {
			adjusted := core.AdjustConstraints([]core.Constraint{c}, ag)[0].Base
			if adjusted > best {
				best = adjusted
			}
		}
		out[i].Base = best
	}
	return out
}

// trace records one remote interaction both in the caller's Stats and as a
// span event — the single sink the old ad-hoc trace helper and the obs
// tracer now share.
func (a *Agent) trace(sp *obs.Span, stats *Stats, round int, home, kind, node string, results int) {
	if stats != nil {
		stats.Trace = append(stats.Trace, TraceEvent{
			Round: round, Wallet: home, Kind: kind, Node: node, Results: results,
		})
	}
	sp.Event("remote query",
		"round", round, "wallet", home, "kind", kind, "node", node, "results", results)
}
