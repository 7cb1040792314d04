// Package replica implements subscription-driven wallet replication (§9):
// a follower bootstraps from a primary's snapshot-at-seq, then applies the
// primary's full changelog stream in sequence order, resyncing automatically
// whenever it detects a gap. Because dRBAC credentials are self-certifying
// signed delegations, a replica needs no extra trust to answer read queries:
// every proof it serves carries the issuer signatures a verifier checks
// anyway. Mutations stay with the primary — a replica's wire server runs
// read-only.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// testHookAfterSync, when set by a test, runs after every snapshot install
// and before the follower (re)subscribes — the window in which a primary
// mutation must be caught by the bootstrap gap check rather than the stream.
var testHookAfterSync func()

// streamBacklog bounds buffered-but-unapplied stream pushes. A follower
// that falls further behind blocks the client dispatcher; the server's own
// stream buffer then overflows and drops, which the seq gap detector turns
// into a resync — slowness degrades to a snapshot refetch, never to a wrong
// replica.
const streamBacklog = 1024

// Config configures a Follower.
type Config struct {
	// Local is the wallet replicated into; required. It should be otherwise
	// idle: local mutations would diverge it from the upstream.
	Local *wallet.Wallet
	// Addrs lists the upstream's addresses (the primary first, then any of
	// its replicas — a follower chain replays sequenced events faithfully).
	// Required unless Peers is set along with Addrs.
	Addrs []string
	// Dialer opens upstream connections; required unless Peers is set.
	Dialer transport.Dialer
	// Peers, if set, is the connection pool to draw from (e.g. the daemon's
	// shared pool); otherwise the follower builds a private one over Dialer.
	Peers *peer.Manager
	// RetryInterval paces reconnect attempts after the pool reports every
	// upstream address down. Default 500ms.
	RetryInterval time.Duration
	// HealthInterval paces liveness checks of an idle stream connection.
	// Default 2s.
	HealthInterval time.Duration
	// Obs receives the follower's logs and drbac_replica_* metrics.
	Obs *obs.Obs
	// Clock is the time source; nil means the system clock.
	Clock clock.Clock
	// Filter, if non-nil, gates which upstream delegations are installed
	// locally: only those it returns true for. Revocations and drops
	// always apply (they are no-ops for uninstalled delegations). A shard
	// split uses it to replay the source shard's changelog filtered to
	// the keys the new shard owns under the new map.
	Filter func(*core.Delegation) bool
}

// Status is a point-in-time view of a follower's replication progress.
type Status struct {
	// AppliedSeq is the upstream changelog seq the local wallet reflects.
	AppliedSeq uint64
	// LagSeconds is the age of the last applied event at apply time,
	// in whole seconds: 0 until the first stream event arrives, and 0
	// again after every sync, which installs the upstream's state as of
	// now.
	LagSeconds int64
	// Resyncs counts snapshot refetches forced by detected gaps (the
	// bootstrap itself is not a resync).
	Resyncs int64
	// Connected reports whether a live upstream stream is attached (true
	// only once the subscribe-all handshake completed on the current
	// connection).
	Connected bool
	// Upstream is the address the current (or last) stream came from.
	Upstream string
}

// Follower drives one wallet as a replica of an upstream wallet.
type Follower struct {
	cfg      Config
	clk      clock.Clock
	peers    *peer.Manager
	ownPeers bool

	cancel context.CancelFunc
	wg     sync.WaitGroup

	applied   atomic.Uint64
	lagSecs   atomic.Int64
	connected atomic.Bool

	mu       sync.Mutex
	upstream string

	mApplied *obs.Counter
	mResyncs *obs.Counter
	mDrops   *obs.Counter
}

// Start validates cfg, registers the drbac_replica_* metrics, and launches
// the replication loop. Stop it with Close.
func Start(cfg Config) (*Follower, error) {
	if cfg.Local == nil {
		return nil, errors.New("replica: Config.Local is required")
	}
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("replica: Config.Addrs is required")
	}
	if cfg.Peers == nil && cfg.Dialer == nil {
		return nil, errors.New("replica: Config.Dialer or Config.Peers is required")
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 500 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	f := &Follower{cfg: cfg, clk: cfg.Clock, peers: cfg.Peers}
	if f.clk == nil {
		f.clk = clock.System{}
	}
	if f.peers == nil {
		f.peers = peer.NewManager(peer.Config{Dialer: cfg.Dialer, Obs: cfg.Obs, Clock: f.clk})
		f.ownPeers = true
	}
	f.mApplied = cfg.Obs.Counter("drbac_replica_events_applied_total")
	f.mResyncs = cfg.Obs.Counter("drbac_replica_resyncs_total")
	f.mDrops = cfg.Obs.Counter("drbac_replica_events_skipped_total")
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.GaugeFunc("drbac_replica_applied_seq", func() int64 { return int64(f.applied.Load()) })
		reg.GaugeFunc("drbac_replica_lag_seconds", f.lagSecs.Load)
		reg.GaugeFunc("drbac_replica_connected", func() int64 {
			if f.connected.Load() {
				return 1
			}
			return 0
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.run(ctx)
	}()
	return f, nil
}

// Close stops the replication loop and waits for it to exit. The local
// wallet keeps its replicated state.
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
	if f.ownPeers {
		f.peers.Close()
	}
}

// Status snapshots the follower's progress.
func (f *Follower) Status() Status {
	f.mu.Lock()
	up := f.upstream
	f.mu.Unlock()
	return Status{
		AppliedSeq: f.applied.Load(),
		LagSeconds: f.lagSecs.Load(),
		Resyncs:    f.mResyncs.Value(),
		Connected:  f.connected.Load(),
		Upstream:   up,
	}
}

// run is the outer reconnect loop: acquire any upstream, serve its stream
// until it breaks, back off briefly, repeat. The peer pool's circuit
// breaker does the per-address backoff; RetryInterval only paces the case
// where every address is down at once.
func (f *Follower) run(ctx context.Context) {
	log := f.cfg.Obs.Log()
	for ctx.Err() == nil {
		c, addr, err := f.peers.GetAny(ctx, f.cfg.Addrs)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Debug("replica: no upstream reachable", "addrs", f.cfg.Addrs, "error", err)
			select {
			case <-ctx.Done():
				return
			case <-f.clk.After(f.cfg.RetryInterval):
			}
			continue
		}
		f.mu.Lock()
		f.upstream = addr
		f.mu.Unlock()
		log.Info("replica: streaming from upstream", "addr", addr)
		err = f.serve(ctx, c)
		f.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		log.Warn("replica: upstream stream ended", "addr", addr, "error", err)
		f.peers.ReportFailure(addr, c)
		select {
		case <-ctx.Done():
			return
		case <-f.clk.After(f.cfg.RetryInterval):
		}
	}
}

// serve runs one bootstrap-then-stream session over c. It returns when the
// connection dies, an RPC fails, or ctx is canceled (nil error only in the
// cancellation case).
func (f *Follower) serve(ctx context.Context, c *remote.Client) error {
	if err := f.syncOnce(ctx, c); err != nil {
		return err
	}
	if testHookAfterSync != nil {
		testHookAfterSync()
	}

	// The handler runs on the client's push dispatcher; done unblocks it
	// when this session ends so the dispatcher never wedges on a dead
	// session's channel.
	events := make(chan wire.NotifyPush, streamBacklog)
	done := make(chan struct{})
	defer close(done)
	streamSeq, cancelStream, err := c.SubscribeAll(ctx, func(p wire.NotifyPush) {
		select {
		case events <- p:
		case <-done:
		}
	})
	if err != nil {
		return fmt.Errorf("replica: subscribe-all: %w", err)
	}
	defer cancelStream()
	// Connected means the live stream is attached: from here on, every
	// upstream mutation reaches this session without a resync.
	f.connected.Store(true)

	// A mutation that landed between the snapshot and the stream becoming
	// live is in neither; the seq mismatch proves it and one resync closes
	// the window (events with seq ≤ the new snapshot are skipped below).
	if streamSeq > f.applied.Load() {
		if err := f.resync(ctx, c, "bootstrap window"); err != nil {
			return err
		}
	}

	for {
		select {
		case <-ctx.Done():
			return nil
		case p := <-events:
			if err := f.handle(ctx, c, p); err != nil {
				return err
			}
		case <-f.clk.After(f.cfg.HealthInterval):
			if !c.Healthy() {
				return errors.New("replica: upstream connection lost")
			}
		}
	}
}

// change is one upstream changelog entry in the form replay applies: what a
// stream push and a snapshot entry both convert into. Its kind says what it
// does: Published installs its bundle, Revoked revokes, Expired and Stale
// drop the delegation announced under that kind, and Renewed (or a kind this
// build does not know, which parses to 0) changes nothing but the applied
// seq.
type change struct {
	kind   subs.EventKind
	id     core.DelegationID
	bundle wallet.StoredBundle // what a Published change installs
}

// replay is the one place upstream changes reach the local wallet, which
// afterwards reflects the upstream at seq. With reconcile the changes are
// the upstream's whole state, and whatever the wallet holds that they never
// put is dropped.
func (f *Follower) replay(changes []change, seq uint64, reconcile bool) {
	w := f.cfg.Local
	// Batch-verify every incoming signature, support proofs included, across
	// the worker pool so the per-bundle installs run warm.
	var warm []*core.Delegation
	for _, c := range changes {
		if c.kind == subs.Published {
			warm = append(warm, c.bundle.Delegation)
			for _, sp := range c.bundle.Support {
				warm = append(warm, sp.Delegations()...)
			}
		}
	}
	core.PrimeDelegations(w.SigVerifier(), warm)
	present := make(map[core.DelegationID]bool)
	for _, c := range changes {
		switch c.kind {
		case subs.Published:
			present[c.id] = true
			if f.cfg.Filter != nil && !f.cfg.Filter(c.bundle.Delegation) {
				continue
			}
			if _, err := w.InstallReplicated(c.bundle); err != nil {
				f.cfg.Obs.Log().Warn("replica: install failed", "delegation", c.id.Short(), "error", err)
			}
		case subs.Expired, subs.Stale:
			delete(present, c.id)
			w.DropReplicated(c.id, c.kind)
		case subs.Revoked:
			w.AcceptRevocation(c.id)
		}
	}
	if reconcile {
		for _, d := range w.Delegations() {
			if !present[d.ID()] {
				w.DropReplicated(d.ID(), subs.Stale)
			}
		}
		// The wallet now holds the upstream's state as of this moment, so
		// nothing it reflects was applied late. Stored before the seq, so
		// whoever sees the new seq sees the cleared lag.
		f.lagSecs.Store(0)
	}
	f.applied.Store(seq)
}

// handle applies one stream push under the seq discipline: duplicates are
// skipped, the next seq is applied, anything else is a gap and forces a
// resync.
func (f *Follower) handle(ctx context.Context, c *remote.Client, p wire.NotifyPush) error {
	applied := f.applied.Load()
	switch {
	case p.Seq <= applied:
		f.mDrops.Inc()
		return nil
	case p.Seq != applied+1:
		return f.resync(ctx, c, fmt.Sprintf("gap: have %d, got %d", applied, p.Seq))
	}
	kind, ok := subs.ParseKind(p.Kind)
	if !ok {
		f.cfg.Obs.Log().Warn("replica: unknown event kind", "kind", p.Kind)
	}
	ch := change{kind: kind, id: p.Delegation}
	if kind == subs.Published {
		if p.Bundle == nil || p.Bundle.Delegation == nil {
			// An upstream that doesn't attach bundles (older wire rev)
			// still replicates correctly, one snapshot per publish.
			return f.resync(ctx, c, "published push without bundle")
		}
		ch.bundle = wallet.StoredBundle(*p.Bundle)
	}
	f.replay([]change{ch}, p.Seq, false)
	f.mApplied.Inc()
	f.lagSecs.Store(max(0, int64(f.clk.Now().Sub(p.At).Seconds())))
	return nil
}

// resync refetches upstream state and reconciles the local wallet to it.
// Counted in drbac_replica_resyncs_total (the initial bootstrap is not).
func (f *Follower) resync(ctx context.Context, c *remote.Client, why string) error {
	f.mResyncs.Inc()
	f.cfg.Obs.Log().Info("replica: resyncing", "reason", why)
	return f.syncOnce(ctx, c)
}

// syncOnce reconciles the local wallet to the upstream's memory: one sync
// snapshot, replayed whole. It is the only way a follower learns upstream
// state other than the stream — never from the upstream's journal, which
// lags its memory (cached copies are not journaled, and a failed append is
// only counted). Each sync runs as its own trace, so a slow or failing one
// is retained and explains itself.
func (f *Follower) syncOnce(ctx context.Context, c *remote.Client) error {
	sp := f.cfg.Obs.StartSpan(obs.NewTraceID(), "replica.sync")
	resp, err := c.Sync(ctx)
	if err != nil {
		err = fmt.Errorf("replica: sync: %w", err)
		sp.Fail(err)
		sp.End("ok", false)
		return err
	}
	f.replay(snapshotChanges(resp), resp.Seq, true)
	sp.End("ok", true, "bundles", len(resp.Bundles), "seq", resp.Seq)
	return nil
}

// snapshotChanges renders a snapshot as the changes that build it: every
// revocation, then every bundle.
func snapshotChanges(resp wire.SyncResp) []change {
	changes := make([]change, 0, len(resp.Revoked)+len(resp.Bundles))
	for _, id := range resp.Revoked {
		changes = append(changes, change{kind: subs.Revoked, id: id})
	}
	for _, b := range resp.Bundles {
		if b.Delegation != nil {
			changes = append(changes, change{kind: subs.Published, id: b.Delegation.ID(), bundle: wallet.StoredBundle(b)})
		}
	}
	return changes
}
