package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
)

// maxRedirectHops bounds how many redirects one routed mutation follows
// before giving up — each hop adopts a strictly newer map, so in practice
// one suffices and the bound only guards against a misbehaving server.
const maxRedirectHops = 3

// RouterConfig configures a Router.
type RouterConfig struct {
	// Map is the initial shard map; required.
	Map *Map
	// Dialer opens shard connections; required unless Peers is set.
	Dialer transport.Dialer
	// Peers, if set, is a shared connection pool (the caller owns its
	// lifecycle); otherwise the router builds a private one over Dialer.
	Peers *peer.Manager
	// Obs receives routing logs and drbac_cluster_* metrics.
	Obs *obs.Obs
}

// Router routes mutations to owning shards by consistent hash and
// self-heals from epoch drift: a redirect refusal carries the fresh map,
// the router adopts it and retries against the new owner. It is the
// client half of the shard map protocol; Node is the server half. It is
// also the gateway agent's discovery.Homes: see Home.
type Router struct {
	obs       *obs.Obs
	peers     *peer.Manager
	ownsPeers bool

	mAdoptions *obs.Counter
	mRedirects *obs.Counter
	mRoutes    *obs.Counter
	mScatters  *obs.Counter

	mu sync.RWMutex
	m  *Map
}

// NewRouter validates cfg and builds a router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("cluster: RouterConfig.Map is required")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.Peers == nil && cfg.Dialer == nil {
		return nil, errors.New("cluster: RouterConfig.Dialer or Peers is required")
	}
	r := &Router{
		obs:        cfg.Obs,
		peers:      cfg.Peers,
		m:          cfg.Map,
		mAdoptions: cfg.Obs.Counter("drbac_cluster_map_adoptions_total"),
		mRedirects: cfg.Obs.Counter("drbac_cluster_redirects_total"),
		mRoutes:    cfg.Obs.Counter("drbac_cluster_routes_total"),
		mScatters:  cfg.Obs.Counter("drbac_cluster_scatter_total"),
	}
	if r.peers == nil {
		r.peers = peer.NewManager(peer.Config{Dialer: cfg.Dialer, Obs: cfg.Obs})
		r.ownsPeers = true
	}
	registerMapGauges(cfg.Obs, r.Current)
	return r, nil
}

// Close releases the router's private connection pool, if it owns one.
func (r *Router) Close() {
	if r.ownsPeers {
		r.peers.Close()
	}
}

// Peers exposes the router's connection pool (shared with discovery).
func (r *Router) Peers() *peer.Manager { return r.peers }

// Current returns the installed map.
func (r *Router) Current() *Map {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m
}

// Epoch is the installed map's epoch.
func (r *Router) Epoch() uint64 { return r.Current().Epoch }

// Adopt installs m if strictly newer. Reports whether it was installed.
func (r *Router) Adopt(m *Map) bool {
	if err := m.Validate(); err != nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Epoch <= r.m.Epoch {
		return false
	}
	r.m = m
	r.mAdoptions.Inc()
	r.obs.Log().Info("cluster: router adopted shard map", "epoch", m.Epoch, "shards", len(m.Shards))
	return true
}

// adoptRedirect parses the map a redirect carried and adopts it.
func (r *Router) adoptRedirect(rd *remote.RedirectError) bool {
	r.mRedirects.Inc()
	if len(rd.Redirect.Map) == 0 {
		return false
	}
	m, err := ParseMap(rd.Redirect.Map)
	if err != nil {
		r.obs.Log().Warn("cluster: redirect carried unparsable map", "error", err)
		return false
	}
	return r.Adopt(m)
}

// Refresh fetches the current map from any shard member and adopts it.
func (r *Router) Refresh(ctx context.Context) error {
	cur := r.Current()
	var lastErr error
	for _, s := range cur.Shards {
		c, addr, err := r.dial(ctx, s)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.ShardMap(ctx)
		if err != nil {
			lastErr = err
			r.peers.ReportFailure(addr, c)
			continue
		}
		m, err := ParseMap(resp.Map)
		if err != nil {
			lastErr = err
			continue
		}
		r.Adopt(m)
		return nil
	}
	return fmt.Errorf("cluster: shard map refresh failed: %w", lastErr)
}

// dial returns a pooled connection to any member of s's replica group,
// plus the address that answered.
func (r *Router) dial(ctx context.Context, s Shard) (*remote.Client, string, error) {
	return r.peers.GetAny(ctx, s.Addrs)
}

// Home implements discovery.Homes for the gateway's agent: every graph
// node lives on the shard owning its route key under the current map, so
// discovery searches a k-shard chain as k homes with no tag ever published.
func (r *Router) Home(_ context.Context, node core.Subject) ([]string, error) {
	return r.Current().Owner(RouteKey(node)).Addrs, nil
}

// OwnerClient returns a connection to the shard owning key, plus the
// shard and the epoch routed under.
func (r *Router) OwnerClient(ctx context.Context, key string) (*remote.Client, string, Shard, uint64, error) {
	cur := r.Current()
	s := cur.Owner(key)
	c, addr, err := r.dial(ctx, s)
	return c, addr, s, cur.Epoch, err
}

// Publish routes a durable publish to the shard owning the delegation's
// subject key, stamped with the routed epoch. A redirect refusal adopts
// the fresh map and retries against the new owner (bounded hops).
func (r *Router) Publish(ctx context.Context, d *core.Delegation, support []*core.Proof) error {
	key := RouteKey(d.Subject)
	for hop := 0; ; hop++ {
		c, addr, shard, epoch, err := r.OwnerClient(ctx, key)
		if err != nil {
			return fmt.Errorf("cluster: publish: shard %d unreachable: %w", shard.ID, err)
		}
		err = c.PublishSharded(ctx, d, support, epoch)
		if err == nil {
			r.mRoutes.Inc()
			return nil
		}
		var rd *remote.RedirectError
		if errors.As(err, &rd) && hop < maxRedirectHops {
			if r.adoptRedirect(rd) {
				continue
			}
			// The redirect carried nothing newer (e.g. a racing adoption
			// already installed it); retry once against the — possibly
			// refreshed — current map anyway.
			if hop == 0 {
				continue
			}
		}
		r.peers.ReportFailure(addr, c)
		return err
	}
}

// tryShard runs fn against shard s with replica-group failover: a member
// whose connection breaks mid-call is reported to the pool and the call
// retries on another member, up to one attempt per group member. A
// redirect refusal or an application error over a healthy connection is
// returned as-is — only transport failures fail over.
func (r *Router) tryShard(ctx context.Context, s Shard, fn func(*remote.Client) error) error {
	attempts := len(s.Addrs)
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		var (
			c    *remote.Client
			addr string
		)
		c, addr, err = r.dial(ctx, s)
		if err != nil {
			return err
		}
		err = fn(c)
		if err == nil {
			return nil
		}
		var rd *remote.RedirectError
		if errors.As(err, &rd) {
			return err
		}
		if c.Healthy() {
			return err
		}
		r.peers.ReportFailure(addr, c)
		r.obs.Log().Warn("cluster: shard member failed mid-call; failing over",
			"shard", s.ID, "addr", addr, "error", err)
	}
	return err
}

// FindOwner scatters a Has probe to every shard and returns the one
// storing the delegation. ok is false when no reachable shard stores it;
// err reports shards that could not be asked (the answer may then be
// incomplete).
func (r *Router) FindOwner(ctx context.Context, id core.DelegationID) (Shard, bool, error) {
	cur := r.Current()
	type answer struct {
		shard   Shard
		present bool
		err     error
	}
	out := make(chan answer, len(cur.Shards))
	for _, s := range cur.Shards {
		go func(s Shard) {
			var present bool
			err := r.tryShard(ctx, s, func(c *remote.Client) error {
				var herr error
				present, herr = c.Has(ctx, id)
				return herr
			})
			out <- answer{shard: s, present: present, err: err}
		}(s)
	}
	r.mScatters.Inc()
	var firstErr error
	found, ok := Shard{}, false
	for range cur.Shards {
		a := <-out
		if a.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: has @shard %d: %w", a.shard.ID, a.err)
		}
		if a.present && !ok {
			found, ok = a.shard, true
		}
	}
	if ok {
		return found, true, nil
	}
	return Shard{}, false, firstErr
}

// Scatter runs fn against every shard in parallel (one pooled connection
// each, with replica-group failover: a member that breaks mid-call is
// retried on another member) and collects per-shard errors, keyed by
// shard ID. An unreachable shard's error lands in the map; fn is never
// called for it.
func (r *Router) Scatter(ctx context.Context, fn func(Shard, *remote.Client) error) map[int]error {
	cur := r.Current()
	r.mScatters.Inc()
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs = make(map[int]error)
	)
	for _, s := range cur.Shards {
		wg.Add(1)
		go func(s Shard) {
			defer wg.Done()
			err := r.tryShard(ctx, s, func(c *remote.Client) error { return fn(s, c) })
			if err != nil {
				emu.Lock()
				errs[s.ID] = err
				emu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return errs
}
