// Package wallet implements the dRBAC credential repository (§4.1): a store
// of delegations supporting publication, direct/subject/object authorization
// queries answered with proofs, revocation, TTL-coherent caching of remote
// credentials, and continuous proof monitoring through delegation
// subscriptions.
//
// The wallet's memory is its state: the sharded graph index holds every
// bundle once and the wallet holds the revoked set. A Store is the journal
// that state is replayed from at construction (Load, read once) and that
// every change to what the wallet is home to is written to; the memoizing
// ProofCache is a derived view and the subs.Registry is the push channel
// that keeps it coherent (§6). Each layer carries its own lock, so queries,
// publications, and revocations proceed concurrently instead of serializing
// on one mutex.
package wallet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/obs"
	"drbac/internal/sigcache"
	"drbac/internal/subs"
)

// Config parameterizes a wallet.
type Config struct {
	// Owner, if set, identifies the wallet's operating entity (used by the
	// remote layer for authentication). A wallet works unowned.
	Owner *core.Identity
	// Clock supplies time; nil means the system clock.
	Clock clock.Clock
	// StrictAttributes requires support proofs for attribute settings
	// outside the issuer's namespace (Table 2 semantics).
	StrictAttributes bool
	// Directory resolves names in error messages and rendered proofs.
	Directory core.Directory
	// MaxDepth bounds proof-chain length; 0 means graph.DefaultMaxDepth.
	MaxDepth int
	// MaxProofs bounds subject/object query results; 0 means
	// graph.DefaultMaxProofs.
	MaxProofs int
	// Store is the wallet's journal; nil means MemStore, which keeps none.
	// What a non-empty one loads (e.g. a log store reopened after a restart)
	// is the wallet's state at construction.
	Store Store
	// DisableProofCache turns off direct-query memoization; every query
	// re-runs the graph search. Used by cold-cache benchmarks.
	DisableProofCache bool
	// Obs, if non-nil, receives structured logs and metrics from every
	// wallet operation (publish/query/revoke counters, query latency,
	// search effort, cache outcomes, state gauges). Nil disables
	// instrumentation at near-zero cost. A registry should back at most one
	// wallet: state gauges are registered by name at construction.
	Obs *obs.Obs
	// SigCache memoizes verified delegation signatures across every check
	// this wallet makes of one: publish admission (provided support proofs
	// included), replica installs, journal replay and externally obtained
	// proofs (MonitorProof). Proofs the wallet assembles from its own graph
	// never consult it: everything in the graph was verified on the way in.
	// Nil means the process-wide sigcache.Shared() — signatures are
	// immutable, so sharing one memo across wallets, proxies, and replicas
	// is free warm-up, never a coherence hazard. Tests and cold benchmarks
	// pass a private cache to isolate measurements.
	SigCache *sigcache.Cache
}

// walletMetrics holds the wallet's pre-resolved instruments. The zero
// value (every field nil) is fully inert: obs instruments no-op on nil
// receivers, so uninstrumented wallets pay one nil test per event.
type walletMetrics struct {
	publish, publishErr    *obs.Counter
	revocations, revokeErr *obs.Counter
	queryDirect            *obs.Counter
	querySubject           *obs.Counter
	queryObject            *obs.Counter
	queryNoProof           *obs.Counter
	replaySkipped          *obs.Counter
	storeErr               *obs.Counter
	searchNodes            *obs.Counter
	searchEdges            *obs.Counter
	searchPruned           *obs.Counter
	events                 *obs.Counter
	queryLatency           *obs.Histogram
}

func newWalletMetrics(o *obs.Obs) walletMetrics {
	if o.Registry() == nil {
		return walletMetrics{}
	}
	return walletMetrics{
		publish:       o.Counter("drbac_wallet_publish_total"),
		publishErr:    o.Counter("drbac_wallet_publish_errors_total"),
		revocations:   o.Counter("drbac_wallet_revocations_total"),
		revokeErr:     o.Counter("drbac_wallet_revoke_errors_total"),
		queryDirect:   o.Counter("drbac_wallet_query_direct_total"),
		querySubject:  o.Counter("drbac_wallet_query_subject_total"),
		queryObject:   o.Counter("drbac_wallet_query_object_total"),
		queryNoProof:  o.Counter("drbac_wallet_query_noproof_total"),
		replaySkipped: o.Counter("drbac_wallet_replay_skipped_total"),
		storeErr:      o.Counter("drbac_wallet_store_errors_total"),
		searchNodes:   o.Counter("drbac_search_nodes_total"),
		searchEdges:   o.Counter("drbac_search_edges_total"),
		searchPruned:  o.Counter("drbac_search_pruned_total"),
		events:        o.Counter("drbac_subs_events_total"),
		queryLatency:  o.Histogram("drbac_wallet_query_seconds"),
	}
}

// Wallet is a concurrency-safe dRBAC credential repository.
type Wallet struct {
	cfg   Config
	clk   clock.Clock
	store Store
	g     *graph.Graph
	reg   *subs.Registry
	obs   *obs.Obs
	m     walletMetrics
	sigv  *sigcache.Cache

	// SLOs resolved once at construction (registering them later misses
	// this wallet); nil when the process defined none.
	sloQuery   *obs.SLO
	sloPublish *obs.SLO

	cache    *ProofCache
	cacheOff bool

	// repMu serializes sequenced mutations; commit is the only code that
	// takes it to change anything. Reads (queries, Stats) never take it.
	repMu sync.Mutex
	// seq is the changelog sequence number of the last accepted mutation,
	// 1-based and gapless within one process. A wallet without a journal
	// starts at 0; one with a journal resumes from the highest seq it
	// recorded, so every journaled mutation is stamped with the seq it was
	// accepted under and those stay monotone across restarts.
	seq uint64

	// revMu guards revoked, the one copy of the revocation set: every
	// delegation this wallet has seen revoked and when. Entries are never
	// removed. Written under repMu as well, by commit's callers.
	revMu   sync.RWMutex
	revoked map[core.DelegationID]time.Time

	// ttlMu guards ttl, which maps TTL-coherent cached copies (§4.2.1) to
	// the instant their TTL lapses without renewal. A held delegation with
	// an entry is cache and unjournaled; one without is what the wallet is
	// home to. Written under repMu as well, so commit's callers read it
	// consistently with the graph.
	ttlMu sync.Mutex
	ttl   map[core.DelegationID]time.Time

	// watchMu guards the proof-watch table.
	watchMu sync.Mutex
	watches map[int]*watch
	nextID  int
}

// watch is a registered "call me when a proof appears" request (§4.2.2).
type watch struct {
	query Query
	fn    func(*core.Proof)
}

// New constructs a wallet from the state cfg.Store loads (none when nil), so
// a wallet reopened over a durable journal serves the same proofs — and
// keeps refusing the same revoked credentials — as before the restart.
func New(cfg Config) *Wallet {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	journal := cfg.Store
	if journal == nil {
		journal = NewMemStore()
	}
	st := journal.Load()
	sigv := cfg.SigCache
	if sigv == nil {
		sigv = sigcache.Shared()
	}
	w := &Wallet{
		cfg:        cfg,
		clk:        clk,
		store:      journal,
		seq:        st.Seq,
		sigv:       sigv,
		g:          graph.New(),
		reg:        subs.NewRegistry(),
		obs:        cfg.Obs,
		m:          newWalletMetrics(cfg.Obs),
		sloQuery:   cfg.Obs.SLO("query"),
		sloPublish: cfg.Obs.SLO("publish"),
		cache:      newProofCache(DefaultProofCacheLimit),
		cacheOff:   cfg.DisableProofCache,
		revoked:    make(map[core.DelegationID]time.Time, len(st.Revocations)),
		ttl:        make(map[core.DelegationID]time.Time),
		watches:    make(map[int]*watch),
	}
	for _, r := range st.Revocations {
		w.revoked[r.ID] = r.At
	}
	// The cache invalidation hook registers first so it is the first
	// wildcard handler: memoized answers die before any other subscriber
	// (monitors, remote pushes) can re-query and observe them. It doubles
	// as the subscription-event meter: every status update the wallet
	// publishes passes through exactly once.
	w.reg.SubscribeAll(func(ev subs.Event) {
		w.m.events.Inc()
		switch ev.Kind {
		case subs.Published:
			w.cache.InvalidateNegatives()
		case subs.Revoked, subs.Expired, subs.Stale:
			w.cache.InvalidateDelegation(ev.Delegation)
		}
	})
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.GaugeFunc("drbac_wallet_delegations", func() int64 { return int64(w.g.Len()) })
		reg.GaugeFunc("drbac_wallet_revoked", func() int64 { return int64(w.revokedCount()) })
		reg.GaugeFunc("drbac_wallet_ttl_tracked", func() int64 { return int64(w.CachedCount()) })
		reg.GaugeFunc("drbac_wallet_watches", func() int64 {
			w.watchMu.Lock()
			defer w.watchMu.Unlock()
			return int64(len(w.watches))
		})
		reg.GaugeFunc("drbac_wallet_cache_hits", func() int64 { return w.cache.Stats().Hits })
		reg.GaugeFunc("drbac_wallet_cache_misses", func() int64 { return w.cache.Stats().Misses })
		reg.GaugeFunc("drbac_wallet_cache_invalidations", func() int64 { return w.cache.Stats().Invalidations })
		reg.GaugeFunc("drbac_wallet_cache_entries", func() int64 { return int64(w.cache.Stats().Entries) })
		reg.GaugeFunc("drbac_wallet_cache_negatives", func() int64 { return int64(w.cache.Stats().Negatives) })
		// The signature memo may be process-wide (shared across wallets);
		// its counters are still exported here so a wallet's registry shows
		// the verification traffic it participates in.
		reg.GaugeFunc("drbac_sigcache_hits", func() int64 { return w.sigv.Stats().Hits })
		reg.GaugeFunc("drbac_sigcache_misses", func() int64 { return w.sigv.Stats().Misses })
		reg.GaugeFunc("drbac_sigcache_evictions", func() int64 { return w.sigv.Stats().Evictions })
		reg.GaugeFunc("drbac_sigcache_size", func() int64 { return w.sigv.Stats().Size })
	}
	for _, b := range st.Bundles {
		// A durable store can hand back bundles that no longer verify —
		// truncated writes, post-hoc tampering, or a key format change.
		// Refusing them is correct, but refusing them silently hid real
		// corruption; count every skip and log its triage (malformed
		// structure vs. failed signature) so operators see decay in the
		// store instead of mysteriously missing credentials.
		if b.Delegation == nil {
			w.m.replaySkipped.Inc()
			w.obs.Log().Warn("wallet replay: skipping bundle with no delegation", "cause", "structure")
			continue
		}
		if err := w.verifyBundle(b.Delegation, b.Support); err != nil {
			w.m.replaySkipped.Inc()
			cause := "signature"
			var structErr *core.StructureError
			if errors.As(err, &structErr) {
				cause = "structure"
			}
			w.obs.Log().Warn("wallet replay: skipping invalid bundle",
				"delegation", b.Delegation.ID().Short(), "cause", cause, "error", err)
			continue
		}
		if w.IsRevoked(b.Delegation.ID()) {
			continue
		}
		w.g.Add(b.Delegation, b.Support)
	}
	return w
}

// Owner returns the wallet's operating identity, which may be nil.
func (w *Wallet) Owner() *core.Identity { return w.cfg.Owner }

// Printer renders this wallet's credentials and proofs with entity names
// resolved through the configured directory.
func (w *Wallet) Printer() core.Printer { return core.Printer{Dir: w.cfg.Directory} }

// Clock returns the wallet's time source.
func (w *Wallet) Clock() clock.Clock { return w.clk }

// Now returns the wallet's current instant.
func (w *Wallet) Now() time.Time { return w.clk.Now() }

// Store returns the wallet's journal.
func (w *Wallet) Store() Store { return w.store }

// Obs returns the wallet's observability bundle, which may be nil.
func (w *Wallet) Obs() *obs.Obs { return w.obs }

// SigVerifier exposes the wallet's verified-signature memo so collaborating
// layers (discovery, proxy, replica sync) can pre-warm it for delegations
// the wallet is about to validate.
func (w *Wallet) SigVerifier() core.SigVerifier { return w.sigv }

// Len returns the number of stored delegations.
func (w *Wallet) Len() int { return w.g.Len() }

// Delegations returns every stored delegation.
func (w *Wallet) Delegations() []*core.Delegation { return w.g.All() }

// Get returns a stored delegation and its support proofs.
func (w *Wallet) Get(id core.DelegationID) (*core.Delegation, []*core.Proof, bool) {
	return w.g.Get(id)
}

// Contains reports whether the wallet holds the delegation.
func (w *Wallet) Contains(id core.DelegationID) bool { return w.g.Contains(id) }

// Revocations returns every revocation this wallet has seen, with the
// instant it was recorded, in unspecified order.
func (w *Wallet) Revocations() []Revocation {
	w.revMu.RLock()
	defer w.revMu.RUnlock()
	out := make([]Revocation, 0, len(w.revoked))
	for id, at := range w.revoked {
		out = append(out, Revocation{ID: id, At: at})
	}
	return out
}

// RevokedIDs returns every delegation ID this wallet has seen revoked, in
// unspecified order.
func (w *Wallet) RevokedIDs() []core.DelegationID {
	revs := w.Revocations()
	ids := make([]core.DelegationID, len(revs))
	for i, r := range revs {
		ids[i] = r.ID
	}
	return ids
}

// IsRevoked reports whether the wallet has seen a revocation for id. It is
// the predicate proof validation and the proof cache check steps against.
func (w *Wallet) IsRevoked(id core.DelegationID) bool {
	w.revMu.RLock()
	defer w.revMu.RUnlock()
	_, ok := w.revoked[id]
	return ok
}

func (w *Wallet) revokedCount() int {
	w.revMu.RLock()
	defer w.revMu.RUnlock()
	return len(w.revoked)
}

// Stats is a point-in-time snapshot of wallet state and cache
// effectiveness.
type Stats struct {
	// Delegations is the number of stored (unrevoked, unswept) delegations.
	Delegations int
	// Revoked is the size of the observed-revocation set.
	Revoked int
	// TTLTracked is the number of cached remote delegations under §4.2.1
	// coherence TTLs.
	TTLTracked int
	// Watches is the number of pending proof watches.
	Watches int
	// Cache reports proof-cache hit/miss/invalidation counters.
	Cache CacheStats
	// SigCache reports the verified-signature memo's counters. When the
	// wallet uses the process-wide shared cache, these reflect all traffic
	// through it, not only this wallet's.
	SigCache sigcache.Stats
}

// Stats snapshots the wallet's state and proof-cache counters.
func (w *Wallet) Stats() Stats {
	w.ttlMu.Lock()
	ttl := len(w.ttl)
	w.ttlMu.Unlock()
	w.watchMu.Lock()
	watches := len(w.watches)
	w.watchMu.Unlock()
	return Stats{
		Delegations: w.g.Len(),
		Revoked:     w.revokedCount(),
		TTLTracked:  ttl,
		Watches:     watches,
		Cache:       w.cache.Stats(),
		SigCache:    w.sigv.Stats(),
	}
}

// Publish verifies and stores a delegation together with the support proofs
// its issuer must provide (§4.1): the object's right-of-assignment chain for
// third-party delegations and, under StrictAttributes, assignment rights for
// foreign attribute settings. Missing support is looked up in the wallet's
// own graph before the publication is rejected. Subscribers receive a
// Published event once the delegation is stored and indexed.
func (w *Wallet) Publish(d *core.Delegation, support ...*core.Proof) error {
	return w.InsertCached(d, support, 0)
}

// InsertCached is Publish for a remotely discovered delegation held under a
// coherence TTL (§4.2.1): the copy is trusted for ttl after insertion and
// must be renewed (RenewCached) or it goes stale. Such a copy is cache — it
// is not journaled, and it never displaces a delegation the wallet already
// holds permanently, which stays permanent. A zero ttl means the delegation
// requires no monitoring and is published permanently.
func (w *Wallet) InsertCached(d *core.Delegation, support []*core.Proof, ttl time.Duration) error {
	var start time.Time
	if w.sloPublish != nil {
		start = time.Now()
	}
	err := w.publish(d, support, ttl)
	if w.sloPublish != nil {
		w.sloPublish.Observe(time.Since(start))
	}
	w.m.publish.Inc()
	if err != nil {
		w.m.publishErr.Inc()
		w.obs.Log().Debug("wallet publish rejected", "error", err)
	} else if w.obs.DebugEnabled() {
		w.obs.Log().Debug("wallet publish",
			"delegation", d.ID().Short(), "kind", d.Kind().String(),
			"issuer", d.Issuer.ID().Short())
	}
	return err
}

func (w *Wallet) publish(d *core.Delegation, support []*core.Proof, ttl time.Duration) error {
	if d == nil {
		return fmt.Errorf("publish: nil delegation")
	}
	if err := w.verifyBundle(d, support); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	now := w.Now()
	if d.Expired(now) {
		return fmt.Errorf("publish: %w", &core.ExpiredError{ID: d.ID(), Expiry: d.Expiry, At: now})
	}
	if w.IsRevoked(d.ID()) {
		return fmt.Errorf("publish: %w", &core.RevokedError{ID: d.ID()})
	}

	vopts := core.ValidateOptions{
		At:               now,
		Revoked:          w.IsRevoked,
		StrictAttributes: w.cfg.StrictAttributes,
		MaxDepth:         w.cfg.MaxDepth,
	}
	used, err := w.resolveSupport(d, support, vopts)
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	if _, err := w.admit(d, used, ttl, true); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	return nil
}

// admit commits a verified bundle as Published and fires the watches it may
// satisfy. With a ttl the bundle is a cached copy: held for ttl, never
// journaled, and no change over a delegation held permanently. Without
// replace, a bundle the graph already holds is no change either.
func (w *Wallet) admit(d *core.Delegation, support []*core.Proof, ttl time.Duration, replace bool) (bool, error) {
	id := d.ID()
	changed, err := w.commit(subs.Published, id, ttl, func(seq uint64, cached bool) (bool, error) {
		if w.g.Contains(id) && (!replace || ttl > 0 && !cached) {
			return false, nil
		}
		if ttl <= 0 {
			if err := w.store.PutDelegation(seq, d, support); err != nil {
				return false, fmt.Errorf("persist %s: %w", id.Short(), err)
			}
		}
		w.g.Add(d, support)
		return true, nil
	})
	if changed {
		w.fireWatches()
	}
	return changed, err
}

// commit is the one writer of the changelog (SPEC §9.1). Under repMu, apply
// updates memory and journals what the wallet is home to at the seq it is
// handed — told whether id is a TTL-tracked cached copy, which the journal
// never saw — and says whether anything changed; if so the seq advances, the
// delegation's TTL tracking is set to ttl from now (ended when ttl is 0) and
// the event goes out. Subscribers so see events in seq order, Snapshot is
// consistent with its seq, and handlers run with repMu held: they must not
// re-enter this wallet's mutations. No change is no seq, no event, no
// journal record. An error beside a change is a journal write that failed
// after memory took the safe outcome.
func (w *Wallet) commit(kind subs.EventKind, id core.DelegationID, ttl time.Duration,
	apply func(seq uint64, cached bool) (changed bool, err error)) (bool, error) {
	now := w.Now()
	w.repMu.Lock()
	defer w.repMu.Unlock()
	w.ttlMu.Lock()
	_, cached := w.ttl[id]
	w.ttlMu.Unlock()
	changed, err := apply(w.seq+1, cached)
	if !changed {
		return false, err
	}
	w.ttlMu.Lock()
	if ttl > 0 {
		w.ttl[id] = now.Add(ttl)
	} else {
		delete(w.ttl, id)
	}
	w.ttlMu.Unlock()
	w.seq++
	w.reg.Publish(subs.Event{Delegation: id, Kind: kind, At: now, Seq: w.seq})
	return true, err
}

// resolveSupport finds and validates a support proof for every role the
// issuer must hold, drawing first on caller-provided proofs and then on the
// wallet's own graph. Neither kind has its signatures checked here: publish
// verified every provided proof before calling it, and the graph admits only
// verified delegations.
func (w *Wallet) resolveSupport(d *core.Delegation, provided []*core.Proof, vopts core.ValidateOptions) ([]*core.Proof, error) {
	need := d.RequiredSupport(w.cfg.StrictAttributes)
	if len(need) == 0 {
		return nil, nil
	}
	issuer := core.SubjectEntity(d.Issuer.ID())
	used := make([]*core.Proof, 0, len(need))
	for _, role := range need {
		var chosen *core.Proof
		for _, sp := range provided {
			if sp == nil || sp.Object != role {
				continue
			}
			if !sp.Subject.IsEntity() || sp.Subject.Entity != d.Issuer.ID() {
				continue
			}
			if err := sp.ValidateAdmitted(vopts); err != nil {
				return nil, fmt.Errorf("support proof for %s: %w", role, err)
			}
			chosen = sp
			break
		}
		if chosen == nil {
			// Fall back to the wallet's own knowledge.
			p, err := w.g.FindDirect(issuer, role, graph.Options{
				At:       vopts.At,
				MaxDepth: w.cfg.MaxDepth,
			})
			if err != nil {
				return nil, &core.MissingSupportError{Delegation: d.ID(), Issuer: d.Issuer, Need: role}
			}
			if err := p.ValidateAdmitted(vopts); err != nil {
				return nil, fmt.Errorf("derived support proof for %s: %w", role, err)
			}
			chosen = p
		}
		used = append(used, chosen)
	}
	return used, nil
}

// Revoke withdraws a delegation. Only the issuer may revoke; by must be the
// issuer's entity ID. Subscribers are notified synchronously (§4.2.2).
func (w *Wallet) Revoke(id core.DelegationID, by core.EntityID) error {
	err := w.revoke(id, by)
	if err != nil {
		w.m.revokeErr.Inc()
		w.obs.Log().Debug("wallet revoke rejected", "delegation", id.Short(), "by", by.Short(), "error", err)
	} else {
		w.m.revocations.Inc()
		w.obs.Log().Debug("wallet revoke", "delegation", id.Short(), "by", by.Short())
	}
	return err
}

func (w *Wallet) revoke(id core.DelegationID, by core.EntityID) error {
	d, _, ok := w.g.Get(id)
	if !ok {
		return fmt.Errorf("revoke %s: not found", id.Short())
	}
	if d.Issuer.ID() != by {
		return fmt.Errorf("revoke %s: only issuer %s may revoke", id.Short(), d.Issuer)
	}
	if err := w.forceRevoke(id); err != nil {
		return fmt.Errorf("revoke %s: %w", id.Short(), err)
	}
	return nil
}

// forceRevoke marks a delegation revoked without an authorization check; it
// backs Revoke and the remote layer's propagation of home-wallet
// revocations (which arrive already authenticated). A revocation the wallet
// has not seen takes effect in memory before anything can fail; the returned
// error reports that the journal did not record it.
func (w *Wallet) forceRevoke(id core.DelegationID) error {
	now := w.Now()
	_, err := w.commit(subs.Revoked, id, 0, func(seq uint64, _ bool) (bool, error) {
		w.revMu.Lock()
		_, seen := w.revoked[id]
		if !seen {
			w.revoked[id] = now
		}
		w.revMu.Unlock()
		if seen {
			return false, nil
		}
		w.g.Remove(id)
		// The tombstone and the bundle removal are one logical mutation and
		// share one seq.
		_, err := w.store.AddRevocation(seq, id, now)
		if derr := w.store.DeleteDelegation(seq, id); err == nil {
			err = derr
		}
		return true, err
	})
	return err
}

// AcceptRevocation records a revocation learned from the delegation's home
// wallet (already authenticated by the transport layer).
func (w *Wallet) AcceptRevocation(id core.DelegationID) {
	w.storeFailed("accept-revocation", id, w.forceRevoke(id))
}

// storeFailed reports a journal error from a path that cannot return it
// (accepted revocations, the sweeps, replicated drops). Memory already holds
// the safe outcome and the wallet keeps serving, but the journal has diverged
// from it — the log store's Health only learns of fsync and compaction
// failures — so the failure is counted and logged rather than dropped. Call
// it outside the wallet's locks.
func (w *Wallet) storeFailed(op string, id core.DelegationID, err error) {
	if err == nil {
		return
	}
	w.m.storeErr.Inc()
	w.obs.Log().Warn("wallet store write failed", "op", op, "delegation", id.Short(), "error", err)
}

// SweepExpired removes delegations whose expiry has passed, notifying
// subscribers, and returns how many were removed. Queries never return
// expired credentials even without sweeping; the sweep exists to push
// monitor notifications (§4.2.2) and reclaim store space.
func (w *Wallet) SweepExpired() int {
	now := w.Now()
	removed := 0
	for _, d := range w.g.All() {
		if d.Expired(now) && w.drop(d.ID(), subs.Expired, "expire") {
			removed++
		}
	}
	return removed
}

// drop removes a held delegation without revoking it and announces it as
// kind; op names the caller if the journal write fails. Absent is no change.
func (w *Wallet) drop(id core.DelegationID, kind subs.EventKind, op string) bool {
	changed, err := w.commit(kind, id, 0, func(seq uint64, cached bool) (bool, error) {
		if !w.g.Remove(id) {
			return false, nil
		}
		if cached {
			return true, nil
		}
		return true, w.store.DeleteDelegation(seq, id)
	})
	w.storeFailed(op, id, err)
	return changed
}

// RenewCached extends a cached delegation's freshness window, reporting
// whether the entry existed. Subscribers receive a Renewed event.
func (w *Wallet) RenewCached(id core.DelegationID, ttl time.Duration) bool {
	if ttl <= 0 {
		return false // no window to extend to; ending the tracking would make the copy permanent
	}
	renewed, _ := w.commit(subs.Renewed, id, ttl, func(_ uint64, cached bool) (bool, error) {
		return cached, nil
	})
	return renewed
}

// ApplyHomeEvent keeps a cached copy coherent with its home wallet (§4.2.1):
// it is the handler for the home's status updates on a delegation this
// wallet caches under ttl. A revocation is recorded, an expiry or staleness
// at the home makes this wallet sweep its own, and a renewal extends the
// copy's TTL.
func (w *Wallet) ApplyHomeEvent(ev subs.Event, ttl time.Duration) {
	switch ev.Kind {
	case subs.Revoked:
		w.AcceptRevocation(ev.Delegation)
	case subs.Expired, subs.Stale:
		w.SweepExpired()
		w.SweepStaleCache()
	case subs.Renewed:
		w.RenewCached(ev.Delegation, ttl)
	}
}

// SweepStaleCache removes cached delegations whose TTL lapsed without
// renewal, notifying subscribers with Stale events, and returns how many
// were removed.
func (w *Wallet) SweepStaleCache() int {
	now := w.Now()
	var lapsed []core.DelegationID
	w.ttlMu.Lock()
	for id, deadline := range w.ttl {
		if now.After(deadline) {
			lapsed = append(lapsed, id)
		}
	}
	w.ttlMu.Unlock()
	removed := 0
	for _, id := range lapsed {
		changed, _ := w.commit(subs.Stale, id, 0, func(uint64, bool) (bool, error) {
			// Renewed or made permanent since the scan is not stale any more.
			w.ttlMu.Lock()
			deadline, tracked := w.ttl[id]
			stale := tracked && now.After(deadline)
			if stale {
				delete(w.ttl, id)
			}
			w.ttlMu.Unlock()
			return stale && w.g.Remove(id), nil
		})
		if changed {
			removed++
		}
	}
	return removed
}

// CachedCount reports the number of TTL-tracked cache entries.
func (w *Wallet) CachedCount() int {
	w.ttlMu.Lock()
	defer w.ttlMu.Unlock()
	return len(w.ttl)
}

// Seq returns the wallet's changelog sequence number: the seq of the last
// accepted mutation. A wallet without a journal starts at 0; one with a
// journal resumes from the highest seq it recorded.
func (w *Wallet) Seq() uint64 {
	w.repMu.Lock()
	defer w.repMu.Unlock()
	return w.seq
}

// Snapshot is a consistent point-in-time copy of the wallet's replicable
// state: every stored bundle and every observed revocation, stamped with
// the changelog seq of the last mutation it includes. A follower that
// installs the snapshot and then applies the event stream from Seq+1
// onward reconstructs the wallet exactly (§9 replication).
type Snapshot struct {
	Seq     uint64
	Bundles []StoredBundle
	Revoked []core.DelegationID
}

// Snapshot captures the wallet's replicable state atomically with respect
// to sequenced mutations: no mutation can land between the seq read and the
// reads of the graph and the revoked set, so the returned state is exactly
// the state at Seq.
func (w *Wallet) Snapshot() Snapshot {
	w.repMu.Lock()
	defer w.repMu.Unlock()
	snap := Snapshot{Seq: w.seq, Bundles: make([]StoredBundle, 0, w.g.Len()), Revoked: w.RevokedIDs()}
	w.g.Each(func(d *core.Delegation, support []*core.Proof) {
		snap.Bundles = append(snap.Bundles, StoredBundle{Delegation: d, Support: support})
	})
	return snap
}

// InstallReplicated stores a bundle exactly as received from an upstream
// primary, skipping support-proof re-derivation: dRBAC credentials are
// self-certifying, so the delegation's signature and every signature in its
// support proofs are still verified — queries never re-check them — but the
// admission decision (support resolution, strictness policy) is trusted to
// the primary that already made it. Expired, locally revoked, or already
// present credentials are skipped without error. Reports whether the bundle
// was installed. Subscribers receive a sequenced Published event, so a
// follower is itself a valid replication source.
func (w *Wallet) InstallReplicated(b StoredBundle) (bool, error) {
	d := b.Delegation
	if d == nil {
		return false, fmt.Errorf("install replicated: nil delegation")
	}
	if err := w.verifyBundle(d, b.Support); err != nil {
		return false, fmt.Errorf("install replicated: %w", err)
	}
	now := w.Now()
	if d.Expired(now) || w.IsRevoked(d.ID()) {
		return false, nil
	}
	installed, err := w.admit(d, b.Support, 0, false)
	if err != nil {
		return false, fmt.Errorf("install replicated: %w", err)
	}
	return installed, nil
}

// verifyBundle is the wallet's one signature check of a bundle it is handed
// (publish, replicated install, journal replay): the structure and signature
// of d and of every delegation in its support proofs, nested ones included,
// whether or not validation will need them, through the memo. Once in the
// graph, those signatures are never checked again.
func (w *Wallet) verifyBundle(d *core.Delegation, support []*core.Proof) error {
	if err := d.VerifyWith(w.sigv); err != nil {
		return err
	}
	for _, sp := range support {
		for _, sd := range sp.Delegations() {
			if err := sd.VerifyWith(w.sigv); err != nil {
				return fmt.Errorf("support proof for %s: %w", sp.Object, err)
			}
		}
	}
	return nil
}

// DropReplicated removes a delegation without recording a revocation,
// mirroring an upstream Expired or Stale event onto a follower replica: the
// credential leaves the store and the graph index and subscribers are
// notified with the given kind, but the revocation set is untouched — the
// upstream never revoked it. Reports whether the delegation was present.
func (w *Wallet) DropReplicated(id core.DelegationID, kind subs.EventKind) bool {
	return w.drop(id, kind, "drop-replicated")
}

// Query identifies an authorization question: does Subject hold Object under
// Constraints (§4.1)?
type Query struct {
	// Ctx, if non-nil, gates admission: a query whose context is already
	// canceled or past its deadline returns the context error instead of
	// searching. The in-memory graph search itself is fast and runs to
	// completion once admitted. A nil Ctx means context.Background().
	Ctx         context.Context
	Subject     core.Subject
	Object      core.Role
	Constraints []core.Constraint
	// Direction selects the search strategy; zero means forward.
	Direction graph.Direction
	// Stats, if non-nil, accumulates search effort. Setting Stats bypasses
	// the proof cache: effort measurements must observe the real search.
	Stats *graph.Stats
	// TraceID, if set, tags this query's structured log records so they
	// join the originating operation's trace (e.g. a cross-wallet
	// discovery). It does not affect the answer.
	TraceID string
}

func (w *Wallet) searchOptions(q Query) graph.Options {
	return graph.Options{
		At:          w.Now(),
		Constraints: q.Constraints,
		MaxDepth:    w.cfg.MaxDepth,
		MaxProofs:   w.cfg.MaxProofs,
		Direction:   q.Direction,
		Stats:       q.Stats,
	}
}

// validateOptions checks a proof for q as of now. Proofs the graph built
// take it through ValidateAdmitted; one from outside adds w.sigv and takes
// Validate.
func (w *Wallet) validateOptions(q Query) core.ValidateOptions {
	return core.ValidateOptions{
		At:               w.Now(),
		Revoked:          w.IsRevoked,
		StrictAttributes: w.cfg.StrictAttributes,
		MaxDepth:         w.cfg.MaxDepth,
		Constraints:      q.Constraints,
	}
}

// QueryDirect answers "does Subject hold Object under Constraints?" with a
// fully validated proof, or core.ErrNoProof. Answers are memoized in the
// proof cache; entries are invalidated by publish/revoke/expiry/TTL-lapse
// pushes and re-checked against expiry and revocation before being served,
// so a cached answer is always as fresh as a recomputed one.
func (w *Wallet) QueryDirect(q Query) (*core.Proof, error) {
	w.m.queryDirect.Inc()
	instrumented := w.m.queryLatency != nil
	debug := w.obs.DebugEnabled()
	slowThr := w.obs.SlowThreshold()
	timed := instrumented || debug || w.sloQuery != nil || slowThr > 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	p, cacheOutcome, gs, err := w.queryDirect(q)
	if err != nil && errors.Is(err, core.ErrNoProof) {
		w.m.queryNoProof.Inc()
	}
	if !timed {
		return p, err
	}
	dur := time.Since(start)
	if instrumented {
		w.m.queryLatency.Observe(dur.Seconds())
	}
	w.sloQuery.Observe(dur)
	if debug {
		w.obs.Log().Debug("wallet query",
			"trace", q.TraceID, "subject", q.Subject.String(), "object", q.Object.String(),
			"cache", cacheOutcome, "found", err == nil,
			"duration_ms", float64(dur.Microseconds())/1000)
	}
	// The slow-query record carries the trace ID (the matching trace is
	// tail-retained by the collector) plus the search effort that explains
	// where the time went, so one Warn line is enough to start triage.
	if slowThr > 0 && dur >= slowThr {
		steps := 0
		if p != nil {
			steps = len(p.Steps)
		}
		w.obs.Log().Warn("slow query",
			"trace", q.TraceID, "subject", q.Subject.String(), "object", q.Object.String(),
			"cache", cacheOutcome, "found", err == nil, "proof_steps", steps,
			"search_nodes", gs.NodesVisited, "search_edges", gs.EdgesExplored,
			"search_pruned", gs.Pruned,
			"duration_ms", float64(dur.Microseconds())/1000)
	}
	return p, err
}

// queryDirect is QueryDirect's answer path; the returned string is the
// cache outcome ("hit", "negative", "miss", or "bypass") for the audit log,
// and the returned graph.Stats is the search effort (zero for cache
// answers) for the slow-query record.
func (w *Wallet) queryDirect(q Query) (*core.Proof, string, graph.Stats, error) {
	var gs graph.Stats
	if q.Ctx != nil {
		if err := q.Ctx.Err(); err != nil {
			return nil, "canceled", gs, err
		}
	}
	useCache := q.Stats == nil && !w.cacheOff
	var key string
	if useCache {
		key = cacheKey(q.Subject, q.Object, q.Constraints)
		if p, negative, ok := w.cache.Lookup(key, w.Now(), w.IsRevoked); ok {
			if negative {
				return nil, "negative", gs, core.ErrNoProof
			}
			return p, "hit", gs, nil
		}
	}
	outcome := "miss"
	if !useCache {
		outcome = "bypass"
	}
	opts := w.searchOptions(q)
	// Mirror search effort into the metrics registry when the caller did
	// not bring its own Stats (which would bypass the cache).
	mirror := q.Stats == nil && w.m.searchNodes != nil
	if mirror {
		opts.Stats = &gs
	}
	p, err := w.g.FindDirect(q.Subject, q.Object, opts)
	if mirror {
		w.mirrorSearch(gs)
	} else if q.Stats != nil {
		gs = *q.Stats
	}
	if err != nil {
		// Only an exhaustive search proves a negative: bidirectional keeps
		// one parent edge per node and may miss proofs; its misses are not memoized.
		if useCache && errors.Is(err, core.ErrNoProof) && q.Direction != graph.Bidirectional {
			w.cache.PutNegative(key)
		}
		return nil, outcome, gs, err
	}
	if err := p.ValidateAdmitted(w.validateOptions(q)); err != nil {
		return nil, outcome, gs, validationFailure(err)
	}
	if useCache {
		w.cache.Put(key, p)
	}
	return p, outcome, gs, nil
}

// mirrorSearch folds one search's effort counters into the registry.
func (w *Wallet) mirrorSearch(gs graph.Stats) {
	w.m.searchNodes.Add(int64(gs.NodesVisited))
	w.m.searchEdges.Add(int64(gs.EdgesExplored))
	w.m.searchPruned.Add(int64(gs.Pruned))
}

// QueryDirectOptions is QueryDirect with explicit graph search options,
// used by ablation experiments (e.g. disabling monotonicity pruning). The
// evaluation instant is forced to the wallet clock, and the proof cache is
// bypassed: ablations must measure the search they configure.
func (w *Wallet) QueryDirectOptions(q Query, opts graph.Options) (*core.Proof, error) {
	opts.At = w.Now()
	p, err := w.g.FindDirect(q.Subject, q.Object, opts)
	if err != nil {
		return nil, err
	}
	if err := p.ValidateAdmitted(w.validateOptions(q)); err != nil {
		return nil, validationFailure(err)
	}
	return p, nil
}

// validationFailure wraps the error of a found proof that did not validate.
// A revocation or an expiry that lands between the search and the validation
// is not a fault: the proof has stopped existing, so the error matches
// core.ErrNoProof as well as its cause and callers (and the server's
// counters) see a denial. Nothing is served either way.
func validationFailure(err error) error {
	var expired *core.ExpiredError
	if errors.Is(err, core.ErrRevoked) || errors.As(err, &expired) {
		return fmt.Errorf("%w: candidate proof failed validation: %w", core.ErrNoProof, err)
	}
	return fmt.Errorf("candidate proof failed validation: %w", err)
}

// QuerySubject enumerates validated sub-proofs Subject ⇒ * (§4.1), the
// primitive behind forward distributed discovery.
func (w *Wallet) QuerySubject(subject core.Subject, constraints []core.Constraint) []*core.Proof {
	w.m.querySubject.Inc()
	return w.enumerate(Query{Subject: subject, Constraints: constraints}, func(opts graph.Options) []*core.Proof {
		return w.g.EnumerateFrom(subject, opts)
	})
}

// QueryObject enumerates validated sub-proofs * ⇒ Object (§4.1), the
// primitive behind reverse distributed discovery.
func (w *Wallet) QueryObject(object core.Role, constraints []core.Constraint) []*core.Proof {
	w.m.queryObject.Inc()
	return w.enumerate(Query{Object: object, Constraints: constraints}, func(opts graph.Options) []*core.Proof {
		return w.g.EnumerateTo(object, opts)
	})
}

// enumerate is QuerySubject's and QueryObject's body: it runs search with
// q's options, mirrors the search effort into the registry, and keeps the
// candidates that validate.
func (w *Wallet) enumerate(q Query, search func(graph.Options) []*core.Proof) []*core.Proof {
	opts := w.searchOptions(q)
	var gs graph.Stats
	mirror := w.m.searchNodes != nil
	if mirror {
		opts.Stats = &gs
	}
	candidates := search(opts)
	if mirror {
		w.mirrorSearch(gs)
	}
	vopts := w.validateOptions(q)
	var out []*core.Proof
	for _, p := range candidates {
		if err := p.ValidateAdmitted(vopts); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// Subscribe registers a handler for one delegation's status updates and
// returns a cancel function.
func (w *Wallet) Subscribe(id core.DelegationID, fn subs.Handler) (cancel func()) {
	return w.reg.Subscribe(id, fn)
}

// SubscribeAll registers a handler for every delegation status update this
// wallet publishes (including Published events) and returns a cancel
// function. The remote layer's changelog stream (§9) rides on it.
func (w *Wallet) SubscribeAll(fn subs.Handler) (cancel func()) {
	return w.reg.SubscribeAll(fn)
}

// Subscribers reports the number of active subscriptions for a delegation.
func (w *Wallet) Subscribers(id core.DelegationID) int { return w.reg.Subscribers(id) }

// WatchFor registers fn to fire once a proof for q becomes available
// (§4.2.2: "the entity object can register a callback that will be activated
// when such a proof is available"). If a proof already exists, fn fires
// synchronously. The returned cancel function is idempotent.
func (w *Wallet) WatchFor(q Query, fn func(*core.Proof)) (cancel func()) {
	if p, err := w.QueryDirect(q); err == nil {
		fn(p)
		return func() {}
	}
	w.watchMu.Lock()
	id := w.nextID
	w.nextID++
	w.watches[id] = &watch{query: q, fn: fn}
	w.watchMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			w.watchMu.Lock()
			delete(w.watches, id)
			w.watchMu.Unlock()
		})
	}
}

// fireWatches re-runs pending watch queries after new credentials arrive.
func (w *Wallet) fireWatches() {
	w.watchMu.Lock()
	pending := make(map[int]*watch, len(w.watches))
	for id, wa := range w.watches {
		pending[id] = wa
	}
	w.watchMu.Unlock()
	for id, wa := range pending {
		p, err := w.QueryDirect(wa.query)
		if err != nil {
			continue
		}
		w.watchMu.Lock()
		_, still := w.watches[id]
		delete(w.watches, id)
		w.watchMu.Unlock()
		if still {
			wa.fn(p)
		}
	}
}
