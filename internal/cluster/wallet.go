package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/discovery"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/subs"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// WalletConfig configures a cluster gateway Wallet.
type WalletConfig struct {
	// RouterConfig configures the gateway's shard router; its Obs also
	// receives the gateway's own logs and metrics.
	RouterConfig
	// Identity, if set, is the gateway's operating identity (answers
	// prove-role requests when the gateway is itself served).
	Identity *core.Identity
	// Clock is the time source; nil means the system clock.
	Clock clock.Clock
	// MaxDepth caps proof chain depth in assembled proofs (0 = wallet
	// default).
	MaxDepth int
}

// Wallet presents an N-shard cluster as one logical wallet: it satisfies
// wallet.Service, so remote.Server, the proxy, and the CLI run on top of
// it unchanged. Mutations route to the owning shard by consistent hash;
// a proof whose chain spans k shards is assembled by the same parallel
// breadth-first machinery distributed discovery uses — each graph node
// resolves (the router is the agent's Homes; no published tags needed) to
// its owning shard's replica group, fetched sub-proofs land in a local
// assembly cache, and the final proof is assembled there. A k-shard
// proof is a k-home discovery with zero-latency tags.
type Wallet struct {
	cfg    WalletConfig
	router *Router
	local  *wallet.Wallet // assembly cache + final proof construction
	agent  *discovery.Agent
	obs    *obs.Obs

	closeOnce sync.Once
}

// NewWallet builds a cluster gateway over the given shard map.
func NewWallet(cfg WalletConfig) (*Wallet, error) {
	router, err := NewRouter(cfg.RouterConfig)
	if err != nil {
		return nil, err
	}
	w := &Wallet{
		cfg:    cfg,
		router: router,
		obs:    cfg.Obs,
	}
	w.local = wallet.New(wallet.Config{
		Owner:    cfg.Identity,
		Clock:    cfg.Clock,
		MaxDepth: cfg.MaxDepth,
		Obs:      cfg.Obs,
	})
	w.agent = discovery.NewAgent(discovery.Config{
		Local: w.local,
		Peers: router.Peers(),
		Obs:   cfg.Obs,
		Homes: router,
	})
	return w, nil
}

// Close releases the gateway's discovery agent and connection pool.
func (w *Wallet) Close() {
	w.closeOnce.Do(func() {
		w.agent.Close()
		w.router.Close()
	})
}

// Router exposes the gateway's shard router (map adoption, scatter).
func (w *Wallet) Router() *Router { return w.router }

// Local exposes the gateway's assembly-cache wallet (tests, sweeping).
func (w *Wallet) Local() *wallet.Wallet { return w.local }

// Guard returns the remote.ClusterGuard a served gateway runs under: it
// advertises the map (shard -1) and refuses nothing — the gateway routes
// mutations itself rather than redirecting callers.
func (w *Wallet) Guard() remote.ClusterGuard { return gatewayGuard{w} }

// Publish routes the delegation to the shard owning its subject key.
func (w *Wallet) Publish(d *core.Delegation, support ...*core.Proof) error {
	return w.router.Publish(context.Background(), d, support)
}

// InsertCached stores a TTL-coherent copy in the gateway's assembly
// cache — cached copies are a local concern, not partitioned state.
func (w *Wallet) InsertCached(d *core.Delegation, support []*core.Proof, ttl time.Duration) error {
	return w.local.InsertCached(d, support, ttl)
}

// Revoke locates the shard storing the delegation and answers with a
// redirect to it: revocation is authorized against the transport-
// authenticated issuer identity, which a forwarding gateway cannot
// impersonate, so the caller must revoke at the owning shard directly.
// When by is the issuer, the gateway's own cached copy is dropped eagerly;
// anyone else's revoke leaves it alone, since the assembly cache, like any
// wallet, never re-admits what it has revoked. Its error (not found, not
// the issuer) is ignored: the redirect is the answer either way.
func (w *Wallet) Revoke(id core.DelegationID, by core.EntityID) error {
	_ = w.local.Revoke(id, by)
	shard, ok, err := w.router.FindOwner(context.Background(), id)
	if !ok {
		if err != nil {
			return fmt.Errorf("cluster: revoke %s: owner lookup incomplete: %w", id.Short(), err)
		}
		return fmt.Errorf("cluster: revoke %s: no shard stores the delegation", id.Short())
	}
	return &remote.RedirectError{
		Msg: fmt.Sprintf("revoke %s at its owning shard with the issuer identity", id.Short()),
		Redirect: wire.Redirect{
			Epoch: w.router.Epoch(),
			Shard: shard.ID,
			Addrs: append([]string(nil), shard.Addrs...),
		},
	}
}

// QueryDirect answers a direct query: the assembly cache first, then a
// cross-shard discovery that pulls each chain segment from its owning
// shard and assembles the proof locally.
func (w *Wallet) QueryDirect(q wallet.Query) (*core.Proof, error) {
	if p, err := w.local.QueryDirect(q); err == nil {
		return p, nil
	} else if !errors.Is(err, core.ErrNoProof) {
		return nil, err
	}
	ctx := q.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return w.agent.Discover(ctx, q, discovery.Auto, nil)
}

// QuerySubject routes to the shard owning the subject key: under
// subject-key partitioning every out-edge of a node lives on one shard,
// so the answer is complete without a scatter. An unreachable owner
// degrades to the assembly cache's view.
func (w *Wallet) QuerySubject(subject core.Subject, constraints []core.Constraint) []*core.Proof {
	ctx := context.Background()
	c, addr, shard, _, err := w.router.OwnerClient(ctx, RouteKey(subject))
	if err == nil {
		proofs, qerr := c.QuerySubject(ctx, subject, constraints)
		if qerr == nil {
			return proofs
		}
		w.router.peers.ReportFailure(addr, c)
		err = qerr
	}
	w.obs.Log().Warn("cluster: subject query at owner failed; serving cache",
		"shard", shard.ID, "subject", subject.String(), "error", err)
	return w.local.QuerySubject(subject, constraints)
}

// QueryObject scatters to every shard: in-edges of a role are scattered
// wherever their subjects hash, so completeness needs the full fan-out.
// Results are merged and deduplicated; unreachable shards degrade the
// answer (logged), they do not fail it.
func (w *Wallet) QueryObject(object core.Role, constraints []core.Constraint) []*core.Proof {
	var (
		mu     sync.Mutex
		merged []*core.Proof
	)
	seen := make(map[string]bool)
	add := func(proofs []*core.Proof) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range proofs {
			k := proofKey(p)
			if seen[k] {
				continue
			}
			seen[k] = true
			merged = append(merged, p)
		}
	}
	add(w.local.QueryObject(object, constraints))
	errs := w.router.Scatter(context.Background(), func(s Shard, c *remote.Client) error {
		proofs, err := c.QueryObject(context.Background(), object, constraints)
		if err != nil {
			return err
		}
		add(proofs)
		return nil
	})
	for id, err := range errs {
		w.obs.Log().Warn("cluster: object query shard unreachable; partial answer",
			"shard", id, "object", object.String(), "error", err)
	}
	return merged
}

// proofKey identifies a proof by its delegation chain, for deduplication
// across shard answers and the local cache.
func proofKey(p *core.Proof) string {
	var b strings.Builder
	for _, st := range p.Steps {
		if st.Delegation != nil {
			b.WriteString(string(st.Delegation.ID()))
			b.WriteByte('|')
		}
	}
	return b.String()
}

// Subscribe watches a delegation at the shard storing it; an unlocatable
// delegation is watched in the assembly cache instead (it may arrive
// there later as a cached copy).
func (w *Wallet) Subscribe(id core.DelegationID, fn subs.Handler) (cancel func()) {
	ctx := context.Background()
	if shard, ok, _ := w.router.FindOwner(ctx, id); ok {
		if c, _, err := w.router.dial(ctx, shard); err == nil {
			if cancel, err := c.Subscribe(ctx, id, fn); err == nil {
				return cancel
			}
		}
	}
	return w.local.Subscribe(id, fn)
}

// Contains reports whether any shard (or the assembly cache) stores the
// delegation.
func (w *Wallet) Contains(id core.DelegationID) bool {
	if w.local.Contains(id) {
		return true
	}
	_, ok, _ := w.router.FindOwner(context.Background(), id)
	return ok
}

// Owner is the gateway's operating identity.
func (w *Wallet) Owner() *core.Identity { return w.cfg.Identity }

// Stats summarizes the assembly cache; cluster-wide routing counters ride
// in the stats response's cluster section (see Guard).
func (w *Wallet) Stats() wallet.Stats { return w.local.Stats() }

// Seq reports 0: the gateway has no changelog of its own — replication
// streams attach to member shards, not to the gateway.
func (w *Wallet) Seq() uint64 { return 0 }

// Obs is the gateway's observability bundle.
func (w *Wallet) Obs() *obs.Obs { return w.obs }

var _ wallet.Service = (*Wallet)(nil)

// gatewayGuard is the remote.ClusterGuard of a served gateway: answer
// shardmap requests, refuse nothing.
type gatewayGuard struct{ w *Wallet }

func (g gatewayGuard) MapResp() (wire.ShardMapResp, error) {
	cur := g.w.router.Current()
	raw, err := cur.Marshal()
	if err != nil {
		return wire.ShardMapResp{}, err
	}
	return wire.ShardMapResp{Epoch: cur.Epoch, Shard: -1, Map: raw}, nil
}

func (g gatewayGuard) Check(uint64, *core.Subject) *wire.Redirect { return nil }
func (g gatewayGuard) Stats() *wire.ClusterStats                  { return g.w.router.Stats() }
