// Package proxy implements the hierarchical validation caches sketched in
// §6: "delegation subscriptions permit construction of hierarchical
// directory-based caches of trusted online validation agents that can
// avoid communication of updates irrelevant to particular caches."
//
// A Proxy serves its own wallet to downstream clients and pulls direct-
// query misses through from an upstream wallet, caching the fetched
// credentials with a TTL and holding exactly one upstream delegation
// subscription per cached credential. A pulled credential enters the cache
// only once its subscription is in place, and leaves it once the upstream
// connection is lost, so none is served without a revocation feed.
// Consequences measured by EXP-S5:
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

	mu sync.Mutex
	// cancels holds each cached credential's upstream subscription, until
	// forget drops it or the proxy closes and sets the map nil.
	cancels map[core.DelegationID]func()
	stop    context.CancelFunc // closes the proxy
	stopped chan struct{}      // closes once it is closed
}

// New builds a proxy over a local cache wallet and an upstream connection.
// The proxy closes once that connection is lost: it can hear no revocation.
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
	ctx, stop := context.WithCancel(context.Background())
	p := &Proxy{
		cfg:     cfg,
		obs:     o,
		hits:    o.Counter("drbac_proxy_hits_total"),
		pulls:   o.Counter("drbac_proxy_pulls_total"),
		cancels: make(map[core.DelegationID]func()),
		stop:    stop,
		stopped: make(chan struct{}),
	}
	untrack := cfg.Local.SubscribeAll(p.forget)
	go func() {
		defer close(p.stopped)
		select {
		case <-cfg.Upstream.Lost():
			p.obs.Log().Warn("proxy upstream lost; dropping cached credentials")
		case <-ctx.Done():
		}
		untrack()
		p.mu.Lock()
		cancels := p.cancels
		p.cancels = nil
		p.mu.Unlock()
		for id, cancel := range cancels {
			p.cfg.Local.DropReplicated(id, subs.Stale)
			cancel()
		}
	}()
	return p, nil
}

// Close cancels every upstream subscription and drops the copies they fed
// from the cache wallet, as a lost upstream connection does.
func (p *Proxy) Close() {
	p.stop()
	<-p.stopped
}

// forget drops a credential's subscription once its copy is swept stale: its
// home may still hold it, and the next pull subscribes afresh. (A revoked or
// expired copy's entry waits for Close: its home pushes nothing more.) It runs
// under the wallet's mutation lock, so the upstream unsubscribe runs off it.
func (p *Proxy) forget(ev subs.Event) {
	if ev.Kind != subs.Stale {
		return
	}
	p.mu.Lock()
	cancel := p.cancels[ev.Delegation]
	delete(p.cancels, ev.Delegation)
	p.mu.Unlock()
	if cancel != nil {
		go cancel()
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

// admit caches each credential of a pulled proof the proxy does not follow
// yet, once an upstream subscription for it is in place: a copy without one
// would stay servable, with no revocation feed, until its TTL ran out.
func (p *Proxy) admit(ctx context.Context, proof *core.Proof) error {
	for _, st := range proof.Steps {
		id := st.Delegation.ID()
		p.mu.Lock()
		closed, held := p.cancels == nil, p.cancels[id] != nil
		p.mu.Unlock()
		if closed {
			return errors.New("proxy: closed")
		}
		if held {
			continue
		}
		cancel, err := p.cfg.Upstream.Subscribe(ctx, id, func(ev subs.Event) { p.cfg.Local.ApplyHomeEvent(ev, p.cfg.TTL) })
		if err != nil {
			return err
		}
		inserted := !p.cfg.Local.Contains(id)
		if inserted {
			if err := p.cfg.Local.InsertCached(st.Delegation, st.Support, p.cfg.TTL); err != nil {
				cancel()
				return err
			}
		}
		// Recorded under the lock forget takes, and only while the copy is
		// held: one that has already left again is not followed.
		p.mu.Lock()
		closed = p.cancels == nil
		kept := !closed && p.cancels[id] == nil && p.cfg.Local.Contains(id)
		if kept {
			p.cancels[id] = cancel
		}
		p.mu.Unlock()
		if !kept {
			cancel()
		}
		if closed {
			if inserted { // the proxy closed during the pull and could not drop it
				p.cfg.Local.DropReplicated(id, subs.Stale)
			}
			return errors.New("proxy: closed")
		}
	}
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
