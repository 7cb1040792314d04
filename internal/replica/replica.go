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
	"drbac/internal/logstore"
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
	// in whole seconds (0 until the first stream event arrives).
	LagSeconds int64
	// Resyncs counts snapshot refetches forced by detected gaps (the
	// bootstrap itself is not a resync).
	Resyncs int64
	// SegmentSyncs counts bootstraps and resyncs served over the
	// segment-shipping path (syncSegments) rather than the monolithic
	// snapshot.
	SegmentSyncs int64
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

	mApplied  *obs.Counter
	mResyncs  *obs.Counter
	mDrops    *obs.Counter
	mSegSyncs *obs.Counter
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
	f.mSegSyncs = cfg.Obs.Counter("drbac_replica_segment_syncs_total")
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
		AppliedSeq:   f.applied.Load(),
		LagSeconds:   f.lagSecs.Load(),
		Resyncs:      f.mResyncs.Value(),
		SegmentSyncs: f.mSegSyncs.Value(),
		Connected:    f.connected.Load(),
		Upstream:     up,
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
	// A fresh connection may be a different upstream entirely, so bootstrap
	// from seq 0: a delta against this follower's applied seq is only
	// meaningful against the connection it was built from.
	if err := f.syncOnce(ctx, c, 0); err != nil {
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
// stream push, a snapshot entry and a shipped log record all convert into.
type change struct {
	seq    uint64
	op     logstore.RecordKind // KindPut, KindDelete, KindRevoke; "" only occupies its seq (a renewal)
	id     core.DelegationID
	bundle wallet.StoredBundle // what a put installs
	kind   subs.EventKind      // what a delete is announced as
}

// replay is the one place upstream changes reach the local wallet, which
// afterwards reflects the upstream at seq. Changes at or below afterSeq were
// applied on this connection already and are skipped: replaying an old
// delete over a newer re-publish would corrupt the replica. With reconcile
// the changes are the upstream's whole state, and whatever the wallet holds
// that they never put is dropped.
func (f *Follower) replay(changes []change, afterSeq, seq uint64, reconcile bool) {
	w := f.cfg.Local
	// Batch-verify every incoming signature across the worker pool so the
	// per-bundle installs run warm.
	var warm []*core.Delegation
	for _, c := range changes {
		if c.op == logstore.KindPut && c.seq > afterSeq {
			warm = append(warm, c.bundle.Delegation)
		}
	}
	core.PrimeDelegations(w.SigVerifier(), warm)
	present := make(map[core.DelegationID]bool)
	for _, c := range changes {
		if c.seq <= afterSeq {
			continue
		}
		switch c.op {
		case logstore.KindPut:
			present[c.id] = true
			if f.cfg.Filter != nil && !f.cfg.Filter(c.bundle.Delegation) {
				continue
			}
			if _, err := w.InstallReplicated(c.bundle); err != nil {
				f.cfg.Obs.Log().Warn("replica: install failed", "delegation", c.id.Short(), "error", err)
			}
		case logstore.KindDelete:
			delete(present, c.id)
			w.DropReplicated(c.id, c.kind)
		case logstore.KindRevoke:
			w.AcceptRevocation(c.id)
		}
	}
	if reconcile {
		for _, d := range w.Delegations() {
			if !present[d.ID()] {
				w.DropReplicated(d.ID(), subs.Stale)
			}
		}
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
	ch := change{seq: p.Seq, id: p.Delegation}
	switch kind, ok := subs.ParseKind(p.Kind); {
	case !ok:
		f.cfg.Obs.Log().Warn("replica: unknown event kind", "kind", p.Kind)
	case kind == subs.Published:
		if p.Bundle == nil || p.Bundle.Delegation == nil {
			// An upstream that doesn't attach bundles (older wire rev)
			// still replicates correctly, one snapshot per publish.
			return f.resync(ctx, c, "published push without bundle")
		}
		ch.op, ch.bundle = logstore.KindPut, wallet.StoredBundle(*p.Bundle)
	case kind == subs.Revoked:
		ch.op = logstore.KindRevoke
	case kind == subs.Expired || kind == subs.Stale:
		ch.op, ch.kind = logstore.KindDelete, kind
	}
	f.replay([]change{ch}, applied, p.Seq, false)
	f.mApplied.Inc()
	f.lagSecs.Store(max(0, int64(f.clk.Now().Sub(p.At).Seconds())))
	return nil
}

// resync refetches upstream state and reconciles the local wallet to it.
// Counted in drbac_replica_resyncs_total (the initial bootstrap is not).
// Because a resync happens on the connection the applied seq was built
// from, it may fetch a delta — only records newer than the applied seq.
func (f *Follower) resync(ctx context.Context, c *remote.Client, why string) error {
	f.mResyncs.Inc()
	f.cfg.Obs.Log().Info("replica: resyncing", "reason", why)
	return f.syncOnce(ctx, c, f.applied.Load())
}

// syncOnce reconciles the local wallet to the upstream, preferring the
// segment-shipping path (log-store upstreams replay raw records, shipping
// only those after afterSeq) and falling back to the monolithic snapshot
// for upstreams that cannot ship segments. Each sync runs as its own trace,
// so a slow or failing one is retained and explains itself (segment vs
// snapshot path, records replayed).
func (f *Follower) syncOnce(ctx context.Context, c *remote.Client, afterSeq uint64) (err error) {
	sp := f.cfg.Obs.StartSpan(obs.NewTraceID(), "replica.sync", "afterSeq", afterSeq)
	defer func() {
		if err != nil {
			sp.Fail(err)
		}
		sp.End("ok", err == nil, "applied", f.applied.Load())
	}()
	ssp := sp.StartChild("replica.sync-segments")
	segErr := f.syncSegments(ctx, c, afterSeq)
	if segErr == nil {
		ssp.End("ok", true)
		return nil
	}
	// Not a span failure: upstreams on non-log stores legitimately cannot
	// ship segments and the snapshot path below is the designed fallback.
	ssp.End("ok", false, "error", segErr.Error())
	if ctx.Err() != nil {
		return segErr
	}
	f.cfg.Obs.Log().Debug("replica: segment sync unavailable, falling back to snapshot", "error", segErr)
	csp := sp.StartChild("replica.snapshot")
	resp, err := c.Sync(ctx)
	if err != nil {
		err = fmt.Errorf("replica: sync: %w", err)
		csp.Fail(err)
		csp.End()
		return err
	}
	f.replay(snapshotChanges(resp), 0, resp.Seq, true)
	csp.End("bundles", len(resp.Bundles), "seq", resp.Seq)
	return nil
}

// snapshotChanges renders a snapshot as the changes that build it: every
// revocation, then every bundle, all as of the snapshot's seq.
func snapshotChanges(resp wire.SyncResp) []change {
	changes := make([]change, 0, len(resp.Revoked)+len(resp.Bundles))
	for _, id := range resp.Revoked {
		changes = append(changes, change{seq: resp.Seq, op: logstore.KindRevoke, id: id})
	}
	for _, b := range resp.Bundles {
		if b.Delegation != nil {
			changes = append(changes, change{seq: resp.Seq, op: logstore.KindPut, id: b.Delegation.ID(), bundle: wallet.StoredBundle(b)})
		}
	}
	return changes
}

// syncSegments bootstraps (or delta-catches-up) over the segment-shipping
// path: the upstream ships its raw record log and the follower replays it
// in seq order. Only a full bootstrap reconciles: compaction already folded
// the records of local leftovers out on the upstream, while a delta has no
// global view.
func (f *Follower) syncSegments(ctx context.Context, c *remote.Client, afterSeq uint64) error {
	resp, err := c.SyncSegments(ctx, afterSeq)
	if err != nil {
		return fmt.Errorf("replica: sync-segments: %w", err)
	}
	changes, err := segmentChanges(resp)
	if err != nil {
		return err
	}
	f.replay(changes, afterSeq, resp.Seq, afterSeq == 0)
	f.mSegSyncs.Inc()
	f.cfg.Obs.Log().Info("replica: segment sync applied",
		"afterSeq", afterSeq, "seq", resp.Seq, "segments", len(resp.Segments), "records", len(changes))
	return nil
}

// segmentChanges decodes shipped segments into the changes their records
// log. A delete record does not say why the delegation left; Stale is what a
// follower announces.
func segmentChanges(resp wire.SyncSegmentsResp) ([]change, error) {
	var changes []change
	for _, seg := range resp.Segments {
		recs, err := logstore.DecodeSegment(seg.Records)
		if err != nil {
			return nil, fmt.Errorf("replica: shipped segment %s: %w", seg.Name, err)
		}
		for _, r := range recs {
			ch := change{seq: r.Seq, op: r.Kind, id: r.ID, kind: subs.Stale}
			if r.Kind == logstore.KindPut {
				if r.Bundle == nil || r.Bundle.Delegation == nil {
					continue
				}
				ch.bundle = *r.Bundle
			}
			changes = append(changes, ch)
		}
	}
	return changes, nil
}
