package dht

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/wire"
)

// K and alpha are Kademlia's classic parameters scaled to coalition sizes
// (hundreds to thousands of wallets, not millions).
const (
	DefaultK         = 16
	DefaultRecordTTL = time.Hour
	// alpha is the lookup parallelism.
	alpha = 3
	// republish is the announce refresh interval, comfortably under any
	// sane RecordTTL so records do not expire between refreshes.
	republish = 10 * time.Minute
	// probeTimeout bounds the ping-before-evict probation probe.
	probeTimeout = 2 * time.Second
	// lookupTimeout bounds one iterative lookup end to end.
	lookupTimeout = 10 * time.Second
)

// ErrNotFound reports a find-value lookup that exhausted the search
// without a verifiable record.
var ErrNotFound = errors.New("dht: no provider record found")

// Config assembles a Node.
type Config struct {
	// Identity is the wallet's operating identity; the node's ID derives
	// from its public key. Required.
	Identity *core.Identity
	// Addr is the wallet address this node advertises to peers (where its
	// server answers dht-* requests). Required.
	Addr string
	// Peers supplies pooled authenticated connections for outbound RPCs.
	// Required. The pool's circuit breakers double as the lookup's
	// fast-fail path for dead contacts.
	Peers *peer.Manager
	// Clock is the time source; nil means the system clock.
	Clock clock.Clock
	// Obs receives logs and metrics (nil discards both).
	Obs *obs.Obs
	// K is the bucket capacity and store replication factor; default 16.
	K int
	// RecordTTL bounds provider record life; default 1h.
	RecordTTL time.Duration
}

// announcement is one entity this node republishes a provider record for.
type announcement struct {
	id    *core.Identity
	addrs []string
	seq   uint64
}

// Node is a wallet's DHT participant: routing table, record store, and
// republisher. It implements remote.DHTHandler for the serving side and
// exposes Home/Announce/Bootstrap for the daemon and discovery.
type Node struct {
	cfg   Config
	self  Contact
	table *Table

	mu        sync.Mutex
	store     map[ID]*wire.DHTRecord
	announced map[core.EntityID]*announcement
	probing   map[int]bool // buckets with an in-flight probation probe
	closed    bool

	quit chan struct{}
	wg   sync.WaitGroup

	mLookups       *obs.Counter
	mStores        *obs.Counter
	mStoresRefused *obs.Counter
}

// NewNode builds a DHT node. Call Start to run its republish loop and
// Close to tear it down.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Identity == nil {
		return nil, errors.New("dht: Config.Identity is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("dht: Config.Addr is required")
	}
	if cfg.Peers == nil {
		return nil, errors.New("dht: Config.Peers is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	if cfg.K <= 0 {
		cfg.K = DefaultK
	}
	if cfg.RecordTTL <= 0 {
		cfg.RecordTTL = DefaultRecordTTL
	}
	self := Contact{ID: IDFromEntity(cfg.Identity.Entity()), Addr: cfg.Addr}
	n := &Node{
		cfg:       cfg,
		self:      self,
		table:     NewTable(self.ID, cfg.K),
		store:     make(map[ID]*wire.DHTRecord),
		announced: make(map[core.EntityID]*announcement),
		probing:   make(map[int]bool),
		quit:      make(chan struct{}),
	}
	o := cfg.Obs
	n.mLookups = o.Counter("drbac_dht_lookups_total")
	n.mStores = o.Counter("drbac_dht_stores_total")
	n.mStoresRefused = o.Counter("drbac_dht_stores_refused_total")
	if o.Registry() != nil {
		o.Registry().GaugeFunc("drbac_dht_bucket_peers", func() int64 { return int64(n.table.Len()) })
		o.Registry().GaugeFunc("drbac_dht_provider_records", func() int64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return int64(len(n.store))
		})
	}
	return n, nil
}

// Self returns this node's contact.
func (n *Node) Self() Contact { return n.self }

// Table exposes the routing table (tests and stats).
func (n *Node) Table() *Table { return n.table }

// Start runs the republish/expiry loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.republishLoop()
}

// Close stops the background loop and waits for in-flight probes.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.quit)
	n.wg.Wait()
}

// Learn records a transport-authenticated sighting of a peer wallet at
// addr. The contact ID comes from the authenticated entity — never from
// claimed bytes — so the table only ever holds self-certified identities.
func (n *Node) Learn(ent core.Entity, addr string) {
	n.insert(Contact{ID: IDFromEntity(ent), Addr: addr})
}

// insert adds c to the routing table, resolving full buckets with an
// asynchronous ping-before-evict probation probe (single-flight per
// bucket: while one probe is in flight further newcomers to that bucket
// are dropped, which is Kademlia's behavior under flood).
func (n *Node) insert(c Contact) {
	oldest, full := n.table.Update(c)
	if !full {
		return
	}
	bucket, ok := BucketIndex(n.self.ID, c.ID)
	if !ok {
		return
	}
	n.mu.Lock()
	if n.closed || n.probing[bucket] {
		n.mu.Unlock()
		return
	}
	n.probing[bucket] = true
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			n.mu.Lock()
			delete(n.probing, bucket)
			n.mu.Unlock()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		cl, err := n.contactClient(ctx, oldest)
		if err == nil {
			err = cl.Ping(ctx)
		}
		if err == nil {
			// The old-timer answered: it stays, the newcomer is dropped.
			n.table.Update(oldest)
			return
		}
		n.cfg.Obs.Log().Debug("dht evicting unresponsive contact",
			"old", oldest.ID.Short(), "new", c.ID.Short(), "error", err)
		n.table.Replace(oldest, c)
	}()
}

// contactClient dials (or reuses) a connection to c and verifies the
// transport-authenticated identity matches the contact's claimed ID. A
// mismatch drops the contact: someone advertised an ID they cannot
// authenticate as.
func (n *Node) contactClient(ctx context.Context, c Contact) (*remote.Client, error) {
	cl, err := n.cfg.Peers.Get(ctx, c.Addr)
	if err != nil {
		return nil, err
	}
	if got := IDFromEntity(cl.Peer()); got != c.ID {
		n.table.Remove(c.ID)
		return nil, fmt.Errorf("dht: %s authenticated as %s, not the advertised %s; contact dropped",
			c.Addr, got.Short(), c.ID.Short())
	}
	return cl, nil
}

// Bootstrap seeds the routing table from one or more known wallet
// addresses (their IDs are learned from the authenticated handshake, not
// configured) and then performs a self-lookup to populate nearby buckets.
// At least one address must answer.
func (n *Node) Bootstrap(ctx context.Context, addrs []string) error {
	var ok int
	var lastErr error
	for _, addr := range addrs {
		if addr == "" || addr == n.self.Addr {
			continue
		}
		cl, err := n.cfg.Peers.Get(ctx, addr)
		if err != nil {
			lastErr = err
			continue
		}
		n.Learn(cl.Peer(), addr)
		ok++
	}
	if ok == 0 {
		if lastErr == nil {
			return errors.New("dht: bootstrap: no usable addresses")
		}
		return fmt.Errorf("dht: bootstrap: no seed reachable: %w", lastErr)
	}
	_, _, err := n.lookup(ctx, n.self.ID, false)
	return err
}

// ---- serving side (remote.DHTHandler) ----

// HandleFindNode answers with the closest known contacts to the target.
func (n *Node) HandleFindNode(from core.Entity, req wire.DHTFindReq) (wire.DHTFindResp, error) {
	n.learnRequester(from, req.From)
	target, err := IDFromBytes(req.Target)
	if err != nil {
		return wire.DHTFindResp{}, err
	}
	return wire.DHTFindResp{Contacts: toWire(n.table.Closest(target, n.cfg.K))}, nil
}

// HandleFindValue answers with the held record under the target key, or
// the closest contacts on a miss. Records are re-verified at serve time:
// one that expired while held is dropped, not served.
func (n *Node) HandleFindValue(from core.Entity, req wire.DHTFindReq) (wire.DHTFindResp, error) {
	n.learnRequester(from, req.From)
	target, err := IDFromBytes(req.Target)
	if err != nil {
		return wire.DHTFindResp{}, err
	}
	if rec := n.heldRecord(target); rec != nil {
		return wire.DHTFindResp{Record: rec}, nil
	}
	return wire.DHTFindResp{Contacts: toWire(n.table.Closest(target, n.cfg.K))}, nil
}

// HandleStore verifies and stores an offered provider record. Refusals
// (unsigned, mis-signed, malformed, expired) are errors — the record is
// never held and the refusal is counted.
func (n *Node) HandleStore(from core.Entity, req wire.DHTStoreReq) error {
	n.learnRequester(from, req.From)
	rec := req.Record
	if err := VerifyRecord(&rec, n.cfg.Clock.Now()); err != nil {
		n.mStoresRefused.Inc()
		n.cfg.Obs.Log().Warn("dht store refused",
			"from", from.ID().Short(), "error", err)
		return err
	}
	key := RecordKey(&rec)
	n.mu.Lock()
	defer n.mu.Unlock()
	if !Fresher(&rec, n.store[key]) {
		// Not an attack, just a stale republication racing a fresh one.
		return nil
	}
	n.store[key] = &rec
	n.mStores.Inc()
	return nil
}

// learnRequester inserts the authenticated requester using its advertised
// listen address (the transport only authenticates the key, not where the
// peer's own server listens).
func (n *Node) learnRequester(from core.Entity, claimed wire.DHTContact) {
	if claimed.Addr == "" {
		return
	}
	n.Learn(from, claimed.Addr)
}

// heldRecord returns the verified record under key, dropping it if it
// expired while held.
func (n *Node) heldRecord(key ID) *wire.DHTRecord {
	n.mu.Lock()
	rec := n.store[key]
	n.mu.Unlock()
	if rec == nil {
		return nil
	}
	if err := VerifyRecord(rec, n.cfg.Clock.Now()); err != nil {
		n.mu.Lock()
		if n.store[key] == rec {
			delete(n.store, key)
		}
		n.mu.Unlock()
		return nil
	}
	return rec
}

func toWire(cs []Contact) []wire.DHTContact {
	out := make([]wire.DHTContact, 0, len(cs))
	for _, c := range cs {
		out = append(out, wire.DHTContact{ID: append([]byte(nil), c.ID[:]...), Addr: c.Addr})
	}
	return out
}

// ---- iterative lookup ----

// lookupState tracks one iterative lookup's candidate set.
type lookupState struct {
	target  ID
	k       int
	known   map[ID]Contact
	queried map[ID]bool
}

func (ls *lookupState) add(c Contact) {
	if c.Addr == "" {
		return
	}
	if _, ok := ls.known[c.ID]; !ok {
		ls.known[c.ID] = c
	}
}

// next returns up to alpha unqueried contacts among the k closest known.
// Restricting candidates to the current k closest is what terminates the
// search: once they have all been asked, no closer node can appear.
func (ls *lookupState) next(alpha int) []Contact {
	all := make([]Contact, 0, len(ls.known))
	for _, c := range ls.known {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		return Less(Distance(all[i].ID, ls.target), Distance(all[j].ID, ls.target))
	})
	if len(all) > ls.k {
		all = all[:ls.k]
	}
	batch := make([]Contact, 0, alpha)
	for _, c := range all {
		if !ls.queried[c.ID] {
			batch = append(batch, c)
			if len(batch) == alpha {
				break
			}
		}
	}
	return batch
}

func (ls *lookupState) closest(n int) []Contact {
	all := make([]Contact, 0, len(ls.known))
	for id, c := range ls.known {
		if ls.queried[id] {
			all = append(all, c)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return Less(Distance(all[i].ID, ls.target), Distance(all[j].ID, ls.target))
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// lookup runs the iterative Kademlia search: query the α closest known
// contacts, merge the contacts they return, repeat until the k closest
// have all answered (or failed). With findValue set it returns as soon as
// a verified record under the target key appears; invalid records are
// discarded and the search continues — a forged record cannot even
// degrade the lookup, only waste one hop.
func (n *Node) lookup(ctx context.Context, target ID, findValue bool) (*wire.DHTRecord, []Contact, error) {
	n.mLookups.Inc()
	ctx, cancel := context.WithTimeout(ctx, lookupTimeout)
	defer cancel()

	ls := &lookupState{
		target:  target,
		k:       n.cfg.K,
		known:   make(map[ID]Contact),
		queried: make(map[ID]bool),
	}
	for _, c := range n.table.Closest(target, n.cfg.K) {
		ls.add(c)
	}

	type reply struct {
		from Contact
		resp wire.DHTFindResp
		err  error
	}
	wreq := wire.DHTFindReq{
		From:   wire.DHTContact{ID: append([]byte(nil), n.self.ID[:]...), Addr: n.self.Addr},
		Target: append([]byte(nil), target[:]...),
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, ls.closest(n.cfg.K), err
		}
		batch := ls.next(alpha)
		if len(batch) == 0 {
			break
		}
		replies := make(chan reply, len(batch))
		for _, c := range batch {
			ls.queried[c.ID] = true
			go func(c Contact) {
				cl, err := n.contactClient(ctx, c)
				if err != nil {
					replies <- reply{from: c, err: err}
					return
				}
				var resp wire.DHTFindResp
				if findValue {
					resp, err = cl.DHTFindValue(ctx, wreq)
				} else {
					resp, err = cl.DHTFindNode(ctx, wreq)
				}
				replies <- reply{from: c, resp: resp, err: err}
			}(c)
		}
		for range batch {
			r := <-replies
			if r.err != nil {
				// Unreachable or misbehaving: out of the candidate set. The
				// peer pool's breaker handles future dial suppression.
				delete(ls.known, r.from.ID)
				n.cfg.Obs.Log().Debug("dht lookup hop failed",
					"contact", r.from.ID.Short(), "addr", r.from.Addr, "error", r.err)
				continue
			}
			// The responder proved live; keep it warm in the table.
			n.insert(r.from)
			if findValue && r.resp.Record != nil {
				rec := r.resp.Record
				if err := VerifyRecord(rec, n.cfg.Clock.Now()); err != nil {
					n.cfg.Obs.Log().Warn("dht lookup: invalid record discarded",
						"from", r.from.ID.Short(), "error", err)
				} else if RecordKey(rec) != target {
					n.cfg.Obs.Log().Warn("dht lookup: record for wrong key discarded",
						"from", r.from.ID.Short(), "got", RecordKey(rec).Short(), "want", target.Short())
				} else {
					return rec, ls.closest(n.cfg.K), nil
				}
			}
			for _, wc := range r.resp.Contacts {
				id, err := IDFromBytes(wc.ID)
				if err != nil || id == n.self.ID {
					continue
				}
				ls.add(Contact{ID: id, Addr: wc.Addr})
			}
		}
	}
	if findValue {
		return nil, ls.closest(n.cfg.K), ErrNotFound
	}
	return nil, ls.closest(n.cfg.K), nil
}

// Lookup finds the k closest live contacts to target (iterative
// find-node).
func (n *Node) Lookup(ctx context.Context, target ID) ([]Contact, error) {
	_, cs, err := n.lookup(ctx, target, false)
	return cs, err
}

// Home implements discovery.Homes: the address(es) in the provider record
// the node's entity signed for its own home wallet — self-certifying, not
// operator-configured; a role lives in its namespace entity's wallet. The
// local store is consulted first (held replicas and our own announcements
// live there), then an iterative find-value; fetched records are verified
// and cached.
func (n *Node) Home(ctx context.Context, node core.Subject) ([]string, error) {
	eid := node.Entity
	if !node.IsEntity() {
		eid = node.Role.Namespace
	}
	target, err := IDFromEntityID(eid)
	if err != nil {
		return nil, err
	}
	if rec := n.heldRecord(target); rec != nil {
		return append([]string(nil), rec.Addrs...), nil
	}
	rec, _, err := n.lookup(ctx, target, true)
	if err != nil {
		return nil, fmt.Errorf("dht: resolve %s: %w", eid.Short(), err)
	}
	n.mu.Lock()
	if Fresher(rec, n.store[target]) {
		n.store[target] = rec
	}
	n.mu.Unlock()
	return append([]string(nil), rec.Addrs...), nil
}

// ---- announcements ----

// Announce registers identity as served at addrs and publishes its
// provider record now; the republish loop refreshes it every republish
// interval with a bumped sequence number. Re-announcing the same identity
// (e.g. on a shard-map epoch change) replaces its addresses.
func (n *Node) Announce(ctx context.Context, id *core.Identity, addrs []string) error {
	if id == nil {
		return errors.New("dht: Announce: nil identity")
	}
	if len(addrs) == 0 {
		return ErrRecordNoAddrs
	}
	n.mu.Lock()
	a := n.announced[id.ID()]
	if a == nil {
		a = &announcement{id: id}
		n.announced[id.ID()] = a
	}
	a.addrs = append([]string(nil), addrs...)
	a.seq++
	seq := a.seq
	n.mu.Unlock()
	return n.publish(ctx, id, addrs, seq)
}

// publish signs a fresh record and stores it locally plus at the k
// closest nodes to its key.
func (n *Node) publish(ctx context.Context, id *core.Identity, addrs []string, seq uint64) error {
	rec, err := SignRecord(id, addrs, seq, n.cfg.Clock.Now(), n.cfg.RecordTTL)
	if err != nil {
		return err
	}
	key := RecordKey(&rec)
	n.mu.Lock()
	if Fresher(&rec, n.store[key]) {
		n.store[key] = &rec
	}
	n.mu.Unlock()

	_, closest, err := n.lookup(ctx, key, false)
	if err != nil && len(closest) == 0 {
		// A lone bootstrap node (or a node announcing before Bootstrap) has
		// nowhere to push; the local copy serves until peers arrive.
		n.cfg.Obs.Log().Debug("dht announce held locally only",
			"entity", id.ID().Short(), "error", err)
		return nil
	}
	req := wire.DHTStoreReq{
		From:   wire.DHTContact{ID: append([]byte(nil), n.self.ID[:]...), Addr: n.self.Addr},
		Record: rec,
	}
	var wg sync.WaitGroup
	var stored atomic.Int64
	for _, c := range closest {
		wg.Add(1)
		go func(c Contact) {
			defer wg.Done()
			cl, err := n.contactClient(ctx, c)
			if err == nil {
				err = cl.DHTStore(ctx, req)
			}
			if err != nil {
				n.cfg.Obs.Log().Debug("dht store push failed",
					"to", c.ID.Short(), "addr", c.Addr, "error", err)
				return
			}
			stored.Add(1)
		}(c)
	}
	wg.Wait()
	n.cfg.Obs.Log().Debug("dht announced",
		"entity", id.ID().Short(), "seq", seq, "replicas", stored.Load())
	return nil
}

// republishLoop refreshes announcements and expires held records.
func (n *Node) republishLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case <-n.cfg.Clock.After(republish):
			n.republishAll()
			n.expire()
		}
	}
}

func (n *Node) republishAll() {
	type job struct {
		id    *core.Identity
		addrs []string
		seq   uint64
	}
	n.mu.Lock()
	jobs := make([]job, 0, len(n.announced))
	for _, a := range n.announced {
		a.seq++
		jobs = append(jobs, job{id: a.id, addrs: append([]string(nil), a.addrs...), seq: a.seq})
	}
	n.mu.Unlock()
	for _, j := range jobs {
		ctx, cancel := context.WithTimeout(context.Background(), lookupTimeout)
		if err := n.publish(ctx, j.id, j.addrs, j.seq); err != nil {
			n.cfg.Obs.Log().Warn("dht republish failed",
				"entity", j.id.ID().Short(), "error", err)
		}
		cancel()
	}
}

// expire drops held records past their TTL.
func (n *Node) expire() {
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	for key, rec := range n.store {
		if !now.Before(rec.IssuedAt.Add(time.Duration(rec.TTLSeconds) * time.Second)) {
			delete(n.store, key)
		}
	}
}

// Stats snapshots the node for the stats response's dht section.
func (n *Node) Stats() *wire.DHTStats {
	n.mu.Lock()
	records := len(n.store)
	announcedN := len(n.announced)
	n.mu.Unlock()
	return &wire.DHTStats{
		ID:              n.self.ID.String(),
		BucketPeers:     n.table.Len(),
		ProviderRecords: records,
		Lookups:         n.mLookups.Value(),
		Stores:          n.mStores.Value(),
		StoresRefused:   n.mStoresRefused.Value(),
		Announced:       announcedN,
	}
}
