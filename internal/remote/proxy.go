package remote

import (
	"context"
	"errors"
	"fmt"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// ProxyConfig parameterizes a Proxy.
type ProxyConfig struct {
	// Local is the proxy's cache wallet, served to downstream clients.
	Local *wallet.Wallet
	// Upstream is the connection wallet misses are pulled through from and
	// upstream subscriptions ride on. Required.
	Upstream *Client
	// TTL is the coherence window for pulled credentials; zero caches
	// permanently (credentials still drop on upstream revocation).
	TTL time.Duration
	// Obs, if non-nil, receives proxy hit/pull metrics and logs; when nil,
	// the local cache wallet's Obs is used instead.
	Obs *obs.Obs
}

// Proxy is a pull-through, subscription-coherent wallet cache: the
// hierarchical validation caches sketched in §6, where "delegation
// subscriptions permit construction of hierarchical directory-based caches of
// trusted online validation agents that can avoid communication of updates
// irrelevant to particular caches."
//
// A Proxy serves its own wallet to downstream clients and pulls direct-query
// misses through from an upstream wallet into a Holder, which follows each
// pulled credential by push on every delegation it rests on. Consequences
// measured by EXP-S5:
//
//   - upstream load scales with the proxy's cached set, not with the
//     downstream population (one upstream push fans out locally);
//   - upstream status changes for credentials this cache never pulled
//     produce no traffic at all, unlike CRL-style distribution.
type Proxy struct {
	cfg ProxyConfig
	// hits counts direct queries answered from the cache, pulls upstream
	// pull-through queries (cache misses): drbac_proxy_{hits,pulls}_total.
	hits  *obs.Counter
	pulls *obs.Counter
	held  *Holder
}

// NewProxy builds a proxy over a local cache wallet and an upstream
// connection. Once that connection is lost the proxy drops every copy it
// pulled: it can hear no revocation.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	if cfg.Local == nil {
		return nil, errors.New("proxy: Local is required")
	}
	if cfg.Upstream == nil {
		return nil, errors.New("proxy: Upstream is required")
	}
	if cfg.Obs == nil {
		cfg.Obs = cfg.Local.Obs()
	}
	return &Proxy{
		cfg:   cfg,
		hits:  cfg.Obs.Counter("drbac_proxy_hits_total"),
		pulls: cfg.Obs.Counter("drbac_proxy_pulls_total"),
		held:  NewHolder(cfg.Local, cfg.Obs),
	}, nil
}

// Close cancels every upstream subscription and drops the copies they fed
// from the cache wallet, as a lost upstream connection does.
func (p *Proxy) Close() { p.held.Close() }

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
	p.cfg.Obs.Log().Debug("proxy pull-through",
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
	for _, st := range proof.Steps {
		if _, err = p.held.Hold(ctx, p.cfg.Upstream, st.Delegation, st.Support, "", p.cfg.TTL); err != nil {
			break
		}
	}
	if errors.Is(err, errHolderClosed) {
		err = errors.New("proxy: closed")
	}
	if err != nil {
		asp.Fail(err)
		asp.End()
		return nil, fmt.Errorf("proxy: admit pulled proof: %w", err)
	}
	asp.End()
	// Serve from the cache so the answer reflects local validation state.
	return p.cfg.Local.QueryDirect(q)
}

// Serve exposes the proxy to downstream clients on ln: cache queries hit
// the local wallet; misses pull through upstream; downstream delegation
// subscriptions attach to the local wallet and fire when upstream updates
// propagate.
func (p *Proxy) Serve(ln transport.Listener) *Server {
	return ServeOptions(p.cfg.Local, ln, Options{
		DirectFallback: p.QueryDirect,
		Obs:            p.cfg.Obs,
	})
}
