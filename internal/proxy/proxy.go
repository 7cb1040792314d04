// Package proxy implements the hierarchical validation caches sketched in
// §6: "delegation subscriptions permit construction of hierarchical
// directory-based caches of trusted online validation agents that can
// avoid communication of updates irrelevant to particular caches."
//
// A Proxy serves its own wallet to downstream clients and pulls direct-
// query misses through from an upstream wallet, caching the fetched
// credentials with a TTL and holding exactly one upstream delegation
// subscription per cached credential. Consequences measured by EXP-S5:
//
//   - upstream load scales with the proxy's cached set, not with the
//     downstream population (one upstream push fans out locally);
//   - upstream status changes for credentials this cache never pulled
//     produce no traffic at all, unlike CRL-style distribution.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// Config parameterizes a proxy.
type Config struct {
	// Local is the proxy's cache wallet, served to downstream clients.
	Local *wallet.Wallet
	// Upstream is the connection wallet misses are pulled through from and
	// upstream subscriptions ride on. Required.
	Upstream *remote.Client
	// TTL is the coherence window for pulled credentials; zero caches
	// permanently (credentials still drop on upstream revocation).
	TTL time.Duration
	// Obs, if non-nil, receives proxy hit/pull metrics and logs; when nil,
	// the local cache wallet's Obs is used instead.
	Obs *obs.Obs
}

// Proxy is a pull-through, subscription-coherent wallet cache.
type Proxy struct {
	cfg Config
	obs *obs.Obs
	// hits counts direct queries answered from the cache, pulls upstream
	// pull-through queries (cache misses): drbac_proxy_{hits,pulls}_total.
	hits  *obs.Counter
	pulls *obs.Counter

	mu      sync.Mutex
	cancels map[core.DelegationID]func()
	closed  bool
}

// New builds a proxy over a local cache wallet and an upstream connection.
func New(cfg Config) (*Proxy, error) {
	if cfg.Local == nil {
		return nil, errors.New("proxy: Local is required")
	}
	if cfg.Upstream == nil {
		return nil, errors.New("proxy: Upstream is required")
	}
	o := cfg.Obs
	if o == nil {
		o = cfg.Local.Obs()
	}
	p := &Proxy{
		cfg:     cfg,
		obs:     o,
		hits:    o.Counter("drbac_proxy_hits_total"),
		pulls:   o.Counter("drbac_proxy_pulls_total"),
		cancels: make(map[core.DelegationID]func()),
	}
	return p, nil
}

// Close cancels every upstream subscription.
func (p *Proxy) Close() {
	p.mu.Lock()
	cancels := p.cancels
	p.cancels = make(map[core.DelegationID]func())
	p.closed = true
	p.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Stats reports cache effectiveness.
func (p *Proxy) Stats() (hits, pulls int) {
	return int(p.hits.Value()), int(p.pulls.Value())
}

// QueryDirect answers from the cache wallet (whose proof cache memoizes
// repeats), pulling through from upstream on a miss. Negative answers are
// never memoized: an unprovable query must retry upstream, where new
// credentials may have appeared.
func (p *Proxy) QueryDirect(ctx context.Context, q wallet.Query) (*core.Proof, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q.Ctx = ctx
	if proof, err := p.cfg.Local.QueryDirect(q); err == nil {
		p.hits.Inc()
		return proof, nil
	} else if !errors.Is(err, core.ErrNoProof) {
		return nil, err
	}
	p.pulls.Inc()
	p.obs.Log().Debug("proxy pull-through",
		"trace", q.TraceID, "subject", q.Subject.String(), "object", q.Object.String())

	// The pull carries the caller's trace and span IDs upstream, so a
	// downstream query that misses the whole hierarchy reads as one trace
	// with the upstream serve span nested under this pull.
	psp := obs.SpanFromContext(ctx).StartChild("proxy.pull",
		"subject", q.Subject.String(), "object", q.Object.String())
	pctx := obs.ContextWithSpan(ctx, psp)
	if psp == nil {
		pctx = obs.ContextWithTrace(ctx, obs.TraceContext{TraceID: q.TraceID})
	}
	up := p.cfg.Upstream
	proof, err := up.QueryDirect(pctx, q.Subject, q.Object, q.Constraints, q.Direction)
	if err != nil {
		if !errors.Is(err, core.ErrNoProof) {
			psp.Fail(err)
		}
		psp.End("ok", false)
		return nil, err
	}
	psp.End("ok", true, "steps", len(proof.Steps))
	asp := obs.SpanFromContext(ctx).StartChild("proxy.admit", "steps", len(proof.Steps))
	if err := p.admit(ctx, up, proof); err != nil {
		asp.Fail(err)
		asp.End()
		return nil, fmt.Errorf("proxy: admit pulled proof: %w", err)
	}
	asp.End()
	// Serve from the cache so the answer reflects local validation state.
	return p.cfg.Local.QueryDirect(q)
}

// admit inserts a pulled proof's delegations into the cache and ensures one
// upstream subscription per credential.
func (p *Proxy) admit(ctx context.Context, up *remote.Client, proof *core.Proof) error {
	// Warm the signature memo for the whole pulled proof tree before the
	// step-by-step InsertCached validations below.
	core.PrimeDelegations(p.cfg.Local.SigVerifier(), proof.Delegations())
	for _, st := range proof.Steps {
		d := st.Delegation
		id := d.ID()
		if !p.cfg.Local.Contains(id) {
			if err := p.cfg.Local.InsertCached(d, st.Support, p.cfg.TTL); err != nil {
				return err
			}
		}
		if err := p.ensureSubscribed(ctx, up, id); err != nil {
			return err
		}
	}
	return nil
}

// ensureSubscribed registers exactly one upstream subscription for id on up.
func (p *Proxy) ensureSubscribed(ctx context.Context, up *remote.Client, id core.DelegationID) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("proxy: closed")
	}
	if _, ok := p.cancels[id]; ok {
		p.mu.Unlock()
		return nil
	}
	// Reserve the slot before the network call so concurrent admits of the
	// same credential subscribe once.
	p.cancels[id] = func() {}
	p.mu.Unlock()

	cancel, err := up.Subscribe(ctx, id, func(ev subs.Event) { p.cfg.Local.ApplyHomeEvent(ev, p.cfg.TTL) })
	if err != nil {
		p.mu.Lock()
		delete(p.cancels, id)
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	p.cancels[id] = cancel
	p.mu.Unlock()
	return nil
}

// Serve exposes the proxy to downstream clients on ln: cache queries hit
// the local wallet; misses pull through upstream; downstream delegation
// subscriptions attach to the local wallet and fire when upstream updates
// propagate.
func (p *Proxy) Serve(ln transport.Listener) *remote.Server {
	return remote.ServeOptions(p.cfg.Local, ln, remote.Options{
		DirectFallback: p.QueryDirect,
		Obs:            p.obs,
	})
}
