// Package proxy implements the hierarchical validation caches sketched in
// §6: "delegation subscriptions permit construction of hierarchical
// directory-based caches of trusted online validation agents that can
// avoid communication of updates irrelevant to particular caches."
//
// A Proxy serves its own wallet to downstream clients and pulls direct-
// query misses through from an upstream wallet, caching the fetched
// credentials with a TTL and holding exactly one upstream delegation
// subscription per cached credential. A pulled credential enters the cache
// only once its subscription is in place, so none is served without a
// revocation feed. Consequences measured by EXP-S5:
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

	mu         sync.Mutex
	subscribed map[core.DelegationID]*upstreamSub
	closed     bool
}

// upstreamSub is one credential's upstream subscription: done closes when
// the subscribe and insert succeeded (cancel set) or failed (err set, unless
// the failing caller gave up first, which says nothing of the credential).
type upstreamSub struct {
	done   chan struct{}
	cancel func()
	err    error
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
	return &Proxy{
		cfg:        cfg,
		obs:        o,
		hits:       o.Counter("drbac_proxy_hits_total"),
		pulls:      o.Counter("drbac_proxy_pulls_total"),
		subscribed: make(map[core.DelegationID]*upstreamSub),
	}, nil
}

// Close cancels every upstream subscription.
func (p *Proxy) Close() {
	p.mu.Lock()
	var cancels []func()
	for _, s := range p.subscribed {
		if s.cancel != nil {
			cancels = append(cancels, s.cancel)
		}
	}
	p.subscribed = nil
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
	proof, err := p.cfg.Upstream.QueryDirect(pctx, q.Subject, q.Object, q.Constraints, q.Direction)
	if err != nil {
		if !errors.Is(err, core.ErrNoProof) {
			psp.Fail(err)
		}
		psp.End("ok", false)
		return nil, err
	}
	psp.End("ok", true, "steps", len(proof.Steps))
	asp := obs.SpanFromContext(ctx).StartChild("proxy.admit", "steps", len(proof.Steps))
	if err := p.admit(ctx, proof); err != nil {
		asp.Fail(err)
		asp.End()
		return nil, fmt.Errorf("proxy: admit pulled proof: %w", err)
	}
	asp.End()
	// Serve from the cache so the answer reflects local validation state.
	return p.cfg.Local.QueryDirect(q)
}

// admit caches each credential of a pulled proof (admitStep).
func (p *Proxy) admit(ctx context.Context, proof *core.Proof) error {
	// Warm the signature memo for the whole pulled proof tree before the
	// step-by-step InsertCached validations below.
	core.PrimeDelegations(p.cfg.Local.SigVerifier(), proof.Delegations())
	for _, st := range proof.Steps {
		if err := p.admitStep(ctx, st); err != nil {
			return err
		}
	}
	return nil
}

// admitStep caches one pulled credential once an upstream subscription for
// it is in place: a copy without one would stay servable, with no revocation
// feed, until its TTL ran out. Concurrent pulls of one credential share the
// subscribe and insert; a failed attempt is forgotten, and its waiters get
// its error or, when its caller gave up, try again themselves.
func (p *Proxy) admitStep(ctx context.Context, st core.ProofStep) error {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return errors.New("proxy: closed")
		}
		s, ok := p.subscribed[st.Delegation.ID()]
		if !ok {
			s = &upstreamSub{done: make(chan struct{})}
			p.subscribed[st.Delegation.ID()] = s
		}
		p.mu.Unlock()
		if !ok {
			return p.subscribe(ctx, st, s)
		}
		select {
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if s.cancel != nil || s.err != nil {
			return s.err
		}
	}
}

// subscribe fills the slot s: subscribe upstream, then insert the copy. A
// failed insert (a revocation pushed in between, an expired or unverifiable
// bundle) cancels the subscription: none is held without its copy.
func (p *Proxy) subscribe(ctx context.Context, st core.ProofStep, s *upstreamSub) error {
	defer close(s.done)
	id := st.Delegation.ID()
	cancel, err := p.cfg.Upstream.Subscribe(ctx, id, func(ev subs.Event) { p.cfg.Local.ApplyHomeEvent(ev, p.cfg.TTL) })
	if err == nil && !p.cfg.Local.Contains(id) {
		err = p.cfg.Local.InsertCached(st.Delegation, st.Support, p.cfg.TTL)
	}
	p.mu.Lock()
	if err == nil && p.closed {
		err = errors.New("proxy: closed") // Close ran during the call and could not cancel it
	}
	if err == nil {
		s.cancel = cancel
	} else {
		delete(p.subscribed, id)
	}
	p.mu.Unlock()
	if err != nil && cancel != nil {
		cancel()
	}
	if ctx.Err() == nil {
		s.err = err
	}
	return err
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
