package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drbac"
)

// Workload sizes. The proof cache holds 8,192 answers: the hot working set
// fits eight times over, the cold one is eight times too big.
const (
	worldSize   = 20000 // delegations in the single-wallet world
	hotPairs    = 1024
	coldPairs   = 65536
	sampleEvery = 64 // one provable answer in this many is re-validated client-side
	slices      = 18 // the measured window is cut into this many equal slices
	liveWatched = 32 // delegations the reader keeps querying against
)

var workloadNames = []string{"authz-hot", "authz-cold", "publish", "revoke", "discover"}

// params is everything a workload's set-up depends on. defaults gives the
// values BENCHMARK.json's workloads are defined by; only tests use others.
type params struct {
	seed    int64
	size    int // delegations in the authz world (publish and revoke hold a quarter)
	chains  int // distinct Figure 2 chains in the discover world
	clients int // closed-loop connections on the authz workloads
	outDir  string
	// solo is the traced run's shape: one connection, one request in
	// flight, on every workload.
	solo bool
	// wrap, when set, stands between the server and the wallet. Tests use
	// it to serve deliberately wrong answers.
	wrap func(drbac.WalletService) drbac.WalletService
}

// instance is one set-up workload: served wallets, connected clients, and
// one closed-loop step function per client connection.
type instance struct {
	primary string // the operation kind whose latency the workload reports
	// decompose is the operation kind the traced run's seam metrics break
	// down; the reported kind unless set.
	decompose string
	digest    string
	notes     []string
	steps     []func(*clientStats)
	wallets   []*drbac.Wallet // the served wallets, for stats deltas
	// slice is the index of the measurement slice in progress, -1 outside
	// the measured window. Clients file latencies under it.
	slice atomic.Int32
	// gate parks the clients between slices: each holds it shared for the
	// length of a step, the harness takes it exclusively to run the yardstick
	// with nothing else going on.
	gate   sync.RWMutex
	finish func(*clientStats) // end-of-run checks, may be nil
	// pushes, when set, collects what reaches a client outside its loop.
	// Whoever files into it synchronizes; the harness reads it like a
	// client's own stats, after finish.
	pushes  *clientStats
	rec     *recorder // nil on the untraced run
	closers []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
	in.closers = nil
}

// serve assembles one wallet the way cmd/drbacd does by default — the
// drbacdObs bundle, wire codec negotiated automatically — and serves it on a
// loopback TCP listener. Each wallet gets its own signature memo, as each drbacd process
// would. A non-nil rec installs the Listener, WalletService and WalletStore
// seam wrappers.
func (in *instance) serve(p params, owner *drbac.Identity, store drbac.WalletStore, rec *recorder) (*drbac.Wallet, string, error) {
	in.rec = rec
	if rec != nil {
		if store == nil {
			store = drbac.NewMemStore()
		}
		store = &tracedStore{WalletStore: store, rec: rec}
	}
	w := drbac.NewWallet(drbac.WalletConfig{Owner: owner, Store: store, Obs: drbacdObs(), SigCache: drbac.NewSigCache(0)})
	ln, err := drbac.ListenTCP("127.0.0.1:0", owner)
	if err != nil {
		return nil, "", err
	}
	var srv *drbac.WalletServer
	if rec == nil && p.wrap == nil {
		srv = drbac.ServeWallet(w, ln)
	} else {
		// ServeWalletCluster with no guard is ServeWallet for any
		// WalletService rather than a *Wallet only.
		var svc drbac.WalletService = w
		var l drbac.Listener = ln
		if p.wrap != nil {
			svc = p.wrap(svc)
		}
		if rec != nil {
			svc, l = &tracedService{WalletService: svc, rec: rec}, &tracedListener{Listener: ln, rec: rec}
		}
		srv = drbac.ServeWalletCluster(svc, l, nil)
	}
	in.closers = append(in.closers, srv.Close)
	in.wallets = append(in.wallets, w)
	return w, ln.Addr(), nil
}

// drbacdObs is the observability bundle drbacd builds by default: metrics
// registry, trace collector 256/250ms/1.0, query and publish SLOs, and info
// level structured logging — formatted as drbacd would, then discarded
// rather than written to stderr.
func drbacdObs() *drbac.Obs {
	reg := drbac.NewMetricsRegistry()
	o := drbac.NewObs(drbac.NewObsLogger(io.Discard, slog.LevelInfo, false), reg)
	o.SetCollector(drbac.NewTraceCollector(reg, drbac.TraceCollectorConfig{
		Capacity: 256, SlowThreshold: 250 * time.Millisecond, SampleRate: 1.0,
	}))
	o.RegisterSLO(drbac.NewLatencySLO(reg, "query", 5*time.Millisecond, 0, 0))
	o.RegisterSLO(drbac.NewLatencySLO(reg, "publish", 25*time.Millisecond, 0, 0))
	return o
}

func dialer(id *drbac.Identity, rec *recorder) drbac.Dialer {
	var d drbac.Dialer = &drbac.TCPDialer{Identity: id}
	if rec != nil {
		d = &tracedDialer{inner: d, rec: rec}
	}
	return d
}

func (in *instance) dial(id *drbac.Identity, addr string, rec *recorder) (*drbac.WalletClient, error) {
	cl, err := drbac.DialWallet(context.Background(), dialer(id, rec), addr)
	if err != nil {
		return nil, err
	}
	if cl.WireCodec() != "binary" {
		cl.Close()
		return nil, fmt.Errorf("negotiated wire codec %q, want binary", cl.WireCodec())
	}
	in.closers = append(in.closers, cl.Close)
	return cl, nil
}

func publishAll(w *drbac.Wallet, bundles []bundle) error {
	for _, b := range bundles {
		if err := w.Publish(b.d, b.support...); err != nil {
			return fmt.Errorf("set-up publish: %w", err)
		}
	}
	return nil
}

// setup builds the named workload. rec is nil for the untraced run.
func setup(name string, p params, rec *recorder) (*instance, error) {
	var (
		in  *instance
		err error
	)
	switch name {
	case "authz-hot":
		in, err = setupAuthz(p, rec, hotPairs)
	case "authz-cold":
		in, err = setupAuthz(p, rec, coldPairs)
	case "publish":
		in, err = setupChurn(p, rec, "publish")
	case "revoke":
		in, err = setupChurn(p, rec, "notify")
	case "discover":
		in, err = setupDiscover(p, rec)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil && in != nil {
		in.close()
		in = nil
	}
	return in, err
}

// ---- per-client measurement state ----

type clientStats struct {
	slice   *atomic.Int32
	primary string
	lat     [slices]hist     // primary-operation latency by slice
	aux     map[string]*hist // every other kind, over the whole window
	calls   atomic.Int64     // completed calls of any kind, read by the coordinator
	done    atomic.Int64     // completed primary operations

	attempted, failed, unsafe int64
	provable                  int64
	errs                      []string
	disc                      drbac.DiscoveryStats
}

func newClientStats(in *instance) *clientStats {
	return &clientStats{slice: &in.slice, primary: in.primary, aux: make(map[string]*hist)}
}

// observe files the latency of one completed call.
func (st *clientStats) observe(kind string, d time.Duration) {
	st.calls.Add(1)
	st.file(kind, d)
}

// file files a duration that is not a call of its own: a subscription push,
// the generator's lag.
func (st *clientStats) file(kind string, d time.Duration) {
	if kind == st.primary {
		st.done.Add(1)
	}
	sl := st.slice.Load()
	if sl < 0 {
		return
	}
	if kind == st.primary {
		st.lat[sl].record(d)
		return
	}
	h := st.aux[kind]
	if h == nil {
		h = new(hist)
		st.aux[kind] = h
	}
	h.record(d)
}

func (st *clientStats) fail(format string, args ...any) {
	st.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, fmt.Sprintf(format, args...))
	}
}

// verify checks one answer against the world's own expectation. Subject and
// object are compared on every proof; one provable answer in sampleEvery is
// validated in full (signatures, chain, support proofs, constraints).
func (st *clientStats) verify(p pair, proof *drbac.Proof, err error) {
	st.attempted++
	switch {
	case !p.provable:
		if !errors.Is(err, drbac.ErrNoProof) {
			st.fail("unprovable query answered with %v, want ErrNoProof", err)
		}
	case err != nil:
		st.fail("provable query failed: %v", err)
	case proof == nil || proof.Subject != p.subject || proof.Object != p.object:
		st.fail("proof does not match the question asked")
	default:
		st.provable++
		if st.provable%sampleEvery != 0 {
			return
		}
		verr := proof.Validate(drbac.ValidateOptions{
			At: time.Now(), Constraints: p.constraints, SigVerifier: drbac.SharedSigCache(),
		})
		if verr != nil {
			st.fail("served proof does not validate: %v", verr)
		}
	}
}

func (st *clientStats) expectOK(what string, err error) {
	st.attempted++
	if err != nil {
		st.fail("%s: %v", what, err)
	}
}

// query is one timed remote direct query.
func query(cl *drbac.WalletClient, p pair, st *clientStats, rec *recorder, kind string) (*drbac.Proof, error) {
	rec.begin(kind)
	start := time.Now()
	proof, err := cl.QueryDirect(context.Background(), p.subject, p.object, p.constraints, 0)
	d := time.Since(start)
	rec.end()
	st.observe(kind, d)
	return proof, err
}

func clientRNG(seed int64, n int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(n) + 1))
}

// ---- authz-hot and authz-cold ----

func setupAuthz(p params, rec *recorder, npairs int) (*instance, error) {
	in := &instance{primary: "query"}
	w := buildAuthzWorld(p.seed, p.size)
	in.digest = digest(w.bundles)
	wallet, addr, err := in.serve(p, w.orgs[0], nil, rec)
	if err != nil {
		return in, err
	}
	if err := publishAll(wallet, w.bundles); err != nil {
		return in, err
	}
	pairs := w.pairs(npairs, npairs == hotPairs)
	in.notes = append(in.notes, fmt.Sprintf("%d delegations, %d query pairs, MemStore", len(w.bundles), len(pairs)))
	if p.solo {
		p.clients = 1
	}
	for c := 0; c < p.clients; c++ {
		cl, err := in.dial(w.g.identity("Client", c), addr, rec)
		if err != nil {
			return in, err
		}
		rng := clientRNG(p.seed, c)
		in.steps = append(in.steps, func(st *clientStats) {
			q := pairs[rng.Intn(len(pairs))]
			proof, err := query(cl, q, st, rec, "query")
			st.verify(q, proof, err)
		})
	}
	return in, nil
}

// ---- publish and revoke: reads beside writes on one wallet ----

type watched struct {
	d   *drbac.Delegation
	dep pair // the question that is provable only while d stands
}

// churn is the state the issuer (client A) and the reader (client B) share.
// They coordinate through it in-process; the wallet sees only their wire
// traffic.
type churn struct {
	w   *authzWorld
	hot []pair
	rec *recorder
	n   int // publications so far (issuer only)

	toWatch chan watched            // A → B: about to be revoked, subscribe to it
	ready   chan watched            // B → A: subscription is live, revoke when you like
	unsub   chan drbac.DelegationID // push callback → B: subscriptions to cancel
	// Reader only: what its dependent queries draw on, and its open
	// subscriptions.
	live    []watched
	next    int
	cancels map[drbac.DelegationID]func()

	mu          sync.Mutex
	revokeStart map[drbac.DelegationID]time.Time // Revoke call started
	revokedAt   map[drbac.DelegationID]time.Time // Revoke acknowledged
	pushes      *clientStats                     // Revoke start → push callback, filed as "notify"
	revokes     int
	notified    int
}

// setupChurn builds the wallet with reads beside writes: an issuer whose
// publications follow one another back to back, each one handed to the reader
// and revoked again, and a reader in a closed loop of its own. reported is
// the operation kind the workload reports:
//
//	"publish" the issuer's Publish calls;
//	"notify"  Revoke call start → the reader's subscription callback.
//
// The wallet runs on the MemStore, drbacd's default: through the log store a
// publication or a revocation is three quarters one fsync, and the numbers
// would follow the disk the checkout sits on, not the program.
func setupChurn(p params, rec *recorder, reported string) (*instance, error) {
	in := &instance{primary: reported, decompose: "publish"}
	if reported == "notify" {
		in.decompose = "revoke"
	}
	w := buildAuthzWorld(p.seed, p.size/4)
	in.digest = digest(w.bundles)
	wallet, addr, err := in.serve(p, w.orgs[0], nil, rec)
	if err != nil {
		return in, err
	}
	if err := publishAll(wallet, w.bundles); err != nil {
		return in, err
	}
	in.pushes = newClientStats(in)
	c := &churn{
		w: w, hot: w.pairs(hotPairs, true), rec: rec, pushes: in.pushes,
		// Sized so neither side ever blocks on the other: a full channel
		// just means that delegation is not revoked.
		toWatch:     make(chan watched, liveWatched),
		ready:       make(chan watched, liveWatched),
		unsub:       make(chan drbac.DelegationID, 4*liveWatched),
		cancels:     make(map[drbac.DelegationID]func()),
		revokeStart: make(map[drbac.DelegationID]time.Time),
		revokedAt:   make(map[drbac.DelegationID]time.Time),
	}
	// Back to back, an issuer publishes a dozen times the world in one
	// window. Everything it publishes is revoked again, so the wallet the
	// last slice measures is the wallet the first one did.
	in.notes = append(in.notes, fmt.Sprintf("%d resident delegations, %d hot pairs, every publication revoked again, MemStore",
		len(w.bundles), len(c.hot)))
	issuer, err := in.dial(w.issuer, addr, rec)
	if err != nil {
		return in, err
	}
	if p.solo {
		rng := clientRNG(p.seed, 0)
		in.steps = append(in.steps, func(st *clientStats) { c.soloStep(issuer, rng, st) })
	} else {
		reader, err := in.dial(w.g.identity("Client", 0), addr, rec)
		if err != nil {
			return in, err
		}
		rng := clientRNG(p.seed, 1)
		in.steps = append(in.steps,
			func(st *clientStats) { c.issuerStep(issuer, st) },
			func(st *clientStats) { c.readerStep(reader, rng, st) })
	}
	in.finish = c.finish
	return in, nil
}

// publish issues (untimed) and publishes (timed) the next fresh delegation.
func (c *churn) publish(cl *drbac.WalletClient, st *clientStats) watched {
	d, dep := c.w.fresh(c.n)
	c.n++
	c.rec.begin("publish")
	start := time.Now()
	err := cl.Publish(context.Background(), d, nil, 0)
	dur := time.Since(start)
	c.rec.end()
	st.observe("publish", dur)
	st.expectOK("publish", err)
	return watched{d: d, dep: dep}
}

// revoke withdraws a watched delegation and at once re-asks the question
// that depended on it: the answer must be no proof, or a proof that does not
// use the revoked delegation.
func (c *churn) revoke(cl *drbac.WalletClient, it watched, st *clientStats) {
	id := it.d.ID()
	c.rec.begin("revoke")
	start := time.Now()
	c.mu.Lock()
	c.revokeStart[id] = start
	c.mu.Unlock()
	err := cl.Revoke(context.Background(), id)
	dur := time.Since(start)
	c.rec.end()
	st.observe("revoke", dur)
	st.expectOK("revoke", err)
	c.mu.Lock()
	c.revokedAt[id] = time.Now()
	c.revokes++
	c.mu.Unlock()

	qStart := time.Now()
	proof, qerr := query(cl, it.dep, st, c.rec, "requery")
	c.checkDependent(it, qStart, proof, qerr, st)
}

// checkDependent judges an answer to a question that hangs on a delegation
// the issuer revokes at some point.
func (c *churn) checkDependent(it watched, asked time.Time, proof *drbac.Proof, err error, st *clientStats) {
	st.attempted++
	id := it.d.ID()
	c.mu.Lock()
	_, started := c.revokeStart[id]
	acked, wasAcked := c.revokedAt[id]
	c.mu.Unlock()
	if err != nil {
		// A refusal is the right answer only once the revocation is under
		// way. It is usually ErrNoProof; when the revocation lands between
		// the wallet's search and its validation of the chain found, the
		// wallet instead reports the validation error naming the revoked
		// delegation. Nothing was served either way, so both pass.
		refused := errors.Is(err, drbac.ErrNoProof) ||
			strings.Contains(err.Error(), "delegation "+id.Short()+" revoked")
		if !refused || !started {
			st.fail("dependent query failed: %v", err)
		}
		return
	}
	if proof == nil || proof.Subject != it.dep.subject || proof.Object != it.dep.object {
		st.fail("dependent proof does not match the question asked")
		return
	}
	if wasAcked && acked.Before(asked) {
		for _, d := range proof.Delegations() {
			if d.ID() == id {
				st.unsafe++
				st.fail("UNSAFE: proof served over delegation %s after its revocation was acknowledged", id.Short())
			}
		}
	}
}

// watch subscribes to a delegation the issuer is about to revoke. The push
// arrives on the connection's reader goroutine, not in any client's loop, so
// its delay is filed in c.pushes, under c.mu.
func (c *churn) watch(cl *drbac.WalletClient, it watched, st *clientStats) {
	id := it.d.ID()
	cancel, err := cl.Subscribe(context.Background(), id, func(ev drbac.Event) {
		if ev.Kind != drbac.EventRevoked {
			return
		}
		now := time.Now()
		c.mu.Lock()
		if t0, ok := c.revokeStart[id]; ok {
			c.pushes.file("notify", now.Sub(t0))
		}
		c.notified++
		c.mu.Unlock()
		select {
		case c.unsub <- id:
		default:
		}
	})
	st.expectOK("subscribe", err)
	if err != nil {
		return
	}
	c.cancels[id] = cancel
	if len(c.live) < liveWatched {
		c.live = append(c.live, it)
	} else {
		c.live[c.next%liveWatched] = it
	}
	c.next++
}

func (c *churn) issuerStep(cl *drbac.WalletClient, st *clientStats) {
	it := c.publish(cl, st)
	select {
	case c.toWatch <- it:
	default: // the reader is behind; this one simply stays
	}
	select {
	case it := <-c.ready:
		c.revoke(cl, it, st)
	default:
	}
}

func (c *churn) readerStep(cl *drbac.WalletClient, rng *rand.Rand, st *clientStats) {
	select {
	case it := <-c.toWatch:
		c.watch(cl, it, st)
		select {
		case c.ready <- it:
		default:
		}
	default:
	}
	select {
	case id := <-c.unsub:
		// A relying party drops its watch once the credential is gone.
		if cancel := c.cancels[id]; cancel != nil {
			cancel()
			delete(c.cancels, id)
		}
	default:
	}
	if len(c.live) > 0 && rng.Intn(8) == 0 {
		it := c.live[rng.Intn(len(c.live))]
		asked := time.Now()
		proof, err := query(cl, it.dep, st, c.rec, "query")
		c.checkDependent(it, asked, proof, err, st)
		return
	}
	q := c.hot[rng.Intn(len(c.hot))]
	proof, err := query(cl, q, st, c.rec, "query")
	st.verify(q, proof, err)
}

// soloStep is the traced run's serialized mix on one connection: a
// publication, seven reads, and the watch → dependent read → revoke →
// re-read sequence.
func (c *churn) soloStep(cl *drbac.WalletClient, rng *rand.Rand, st *clientStats) {
	it := c.publish(cl, st)
	for i := 0; i < 7; i++ {
		q := c.hot[rng.Intn(len(c.hot))]
		proof, err := query(cl, q, st, c.rec, "query")
		st.verify(q, proof, err)
	}
	c.watch(cl, it, st)
	asked := time.Now()
	proof, err := query(cl, it.dep, st, c.rec, "query")
	c.checkDependent(it, asked, proof, err, st)
	c.revoke(cl, it, st)
}

// finish checks that every acknowledged revocation reached its subscriber.
func (c *churn) finish(st *clientStats) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		revokes, notified := c.revokes, c.notified
		c.mu.Unlock()
		if notified >= revokes {
			return
		}
		if time.Now().After(deadline) {
			st.attempted++
			st.fail("%d of %d revocations never reached the subscriber", revokes-notified, revokes)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---- discover ----

func setupDiscover(p params, rec *recorder) (*instance, error) {
	in := &instance{primary: "discover"}
	chains := p.chains
	g := newGen(p.seed)
	var addrs [3]string
	var wallets [3]*drbac.Wallet
	for h := range addrs {
		w, addr, err := in.serve(p, g.identity("Home", h), nil, rec)
		if err != nil {
			return in, err
		}
		wallets[h], addrs[h] = w, addr
	}
	w := buildDiscoverWorld(p.seed, chains, addrs)
	var carried []bundle
	for _, d := range w.carried {
		carried = append(carried, bundle{d: d})
	}
	in.digest = digest(w.perHome[0], w.perHome[1], w.perHome[2], carried)
	for h := range wallets {
		if err := publishAll(wallets[h], w.perHome[h]); err != nil {
			return in, err
		}
	}
	in.notes = append(in.notes, fmt.Sprintf("%d chains over 3 wallets (%d delegations each), fresh local wallet per discovery, shared peer pool",
		chains, chains))
	peers := drbac.NewPeerManager(drbac.PeerConfig{Dialer: dialer(w.server, rec)})
	in.closers = append(in.closers, peers.Close)
	if p.solo {
		p.clients = 1
	}
	for c := 0; c < p.clients; c++ {
		in.steps = append(in.steps, discoverStep(w, peers, clientRNG(p.seed, c), rec))
	}
	return in, nil
}

// discoverStep is one resource server's loop: each discovery starts from a
// fresh, empty local wallet; the peer pool is shared by all of them.
func discoverStep(w *discoverWorld, peers *drbac.PeerManager, rng *rand.Rand, rec *recorder) func(*clientStats) {
	return func(st *clientStats) {
		i := rng.Intn(len(w.queries))
		q := w.queries[i]
		rec.begin("discover")
		start := time.Now()
		local := drbac.NewWallet(drbac.WalletConfig{Owner: w.server})
		agent := drbac.NewDiscoveryAgent(drbac.DiscoveryConfig{Local: local, Peers: peers})
		// Figure 2 step 1: the user presents the first credential directly.
		perr := local.Publish(w.carried[i])
		agent.Learn(w.carried[i])
		var ds drbac.DiscoveryStats
		proof, err := agent.Discover(context.Background(),
			drbac.Query{Subject: q.subject, Object: q.object, Constraints: q.constraints},
			drbac.DiscoverAuto, &ds)
		agent.Close()
		d := time.Since(start)
		rec.end()
		st.observe("discover", d)
		if perr != nil {
			err = perr
		}
		st.verify(q, proof, err)
		if st.slice.Load() >= 0 {
			addDiscovery(&st.disc, ds)
		}
	}
}

func addDiscovery(sum *drbac.DiscoveryStats, ds drbac.DiscoveryStats) {
	sum.Rounds += ds.Rounds
	sum.RemoteQueries += ds.RemoteQueries
	sum.WalletsContacted += ds.WalletsContacted
	sum.DelegationsFetched += ds.DelegationsFetched
}

// ---- driving the clients ----

// counters is a snapshot of the process- and wallet-level counters whose
// deltas over a run become per-layer metrics.
type counters struct {
	at         time.Time
	cpu        time.Duration
	rss        float64 // MB
	calls      int64
	done       int64
	mem        runtime.MemStats
	cacheHits  int64
	cacheMiss  int64
	cacheInval int64
	sigHits    int64
	sigMiss    int64
	// Seam counters; zero on the untraced run.
	frames, bytes, dials int64
}

func (in *instance) light(stats []*clientStats) counters {
	c := counters{at: time.Now(), cpu: cpuTime(), rss: rssMB()}
	for _, st := range stats {
		c.calls += st.calls.Load()
		c.done += st.done.Load()
	}
	if in.rec != nil {
		c.frames, c.bytes, c.dials = in.rec.frames.Load(), in.rec.bytes.Load(), in.rec.dials.Load()
	}
	return c
}

func (in *instance) full(stats []*clientStats) counters {
	c := in.light(stats)
	runtime.ReadMemStats(&c.mem)
	for _, w := range in.wallets {
		ws := w.Stats()
		c.cacheHits += ws.Cache.Hits
		c.cacheMiss += ws.Cache.Misses
		c.cacheInval += ws.Cache.Invalidations
		c.sigHits += ws.SigCache.Hits
		c.sigMiss += ws.SigCache.Misses
	}
	return c
}

// timedSlice is one slice of a timed run: the counters at its two ends, and
// how slow the machine was meanwhile, by the yardstick either side of it.
type timedSlice struct {
	a, b    counters
	stretch float64
}

// measurement is what one run of one workload produced.
type measurement struct {
	primary   string
	decompose string
	slices    []timedSlice // of a timed run
	before    counters     // of a counted run
	after     counters
	bySlice   [slices]hist // primary-operation latency
	all       hist
	aux       map[string]*hist // every other timed thing, by kind
	attempted int64
	failed    int64
	unsafe    int64
	errs      []string
	disc      drbac.DiscoveryStats
}

// latency is the distribution of one operation kind over the window.
func (m *measurement) latency(kind string) *hist {
	if kind == m.primary {
		return &m.all
	}
	return m.aux[kind]
}

func (in *instance) collect(stats []*clientStats, m *measurement) {
	m.primary, m.decompose = in.primary, in.decompose
	if m.decompose == "" {
		m.decompose = in.primary
	}
	m.aux = make(map[string]*hist)
	if in.finish != nil {
		in.finish(stats[0])
	}
	for _, st := range stats {
		for i := range st.lat {
			m.bySlice[i].merge(&st.lat[i])
			m.all.merge(&st.lat[i])
		}
		for k, h := range st.aux {
			if m.aux[k] == nil {
				m.aux[k] = new(hist)
			}
			m.aux[k].merge(h)
		}
		m.attempted += st.attempted
		m.failed += st.failed
		m.unsafe += st.unsafe
		m.errs = append(m.errs, st.errs...)
		addDiscovery(&m.disc, st.disc)
	}
}

// runTimed drives every client in a closed loop: warm-up, then a measured
// window cut into equal slices. Between slices the clients are parked while
// the yardstick runs, so every slice has a reading of the machine's speed
// either side of it.
func (in *instance) runTimed(yard *yardstick, warm, window time.Duration) (*measurement, error) {
	var (
		stats []*clientStats
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	in.slice.Store(-1)
	for _, step := range in.steps {
		st := newClientStats(in)
		stats = append(stats, st)
		wg.Add(1)
		go func(step func(*clientStats)) {
			defer wg.Done()
			for !stop.Load() {
				in.gate.RLock()
				step(st)
				in.gate.RUnlock()
			}
		}(step)
	}
	if in.pushes != nil {
		stats = append(stats, in.pushes)
	}
	time.Sleep(warm)
	m := &measurement{}
	in.gate.Lock()
	reading, err := yard.measure()
	for s := 0; s < slices && err == nil; s++ {
		sl := timedSlice{a: in.light(stats)}
		in.slice.Store(int32(s))
		in.gate.Unlock()
		time.Sleep(window / slices)
		in.gate.Lock()
		in.slice.Store(-1)
		sl.b = in.light(stats)
		before := reading
		reading, err = yard.measure()
		sl.stretch = stretch(before, reading)
		m.slices = append(m.slices, sl)
	}
	stop.Store(true)
	in.gate.Unlock()
	wg.Wait()
	in.collect(stats, m)
	return m, err
}

// runCounted drives the first client alone for a fixed number of steps —
// the traced run's shape. rec, when non-nil, records only the counted part.
func (in *instance) runCounted(warmSteps, steps int, rec *recorder) *measurement {
	st := newClientStats(in)
	stats := []*clientStats{st}
	if in.pushes != nil {
		stats = append(stats, in.pushes)
	}
	in.slice.Store(-1)
	for i := 0; i < warmSteps; i++ {
		in.steps[0](st)
	}
	m := &measurement{}
	if rec != nil {
		rec.on.Store(true)
	}
	in.slice.Store(0)
	m.before = in.full(stats)
	for i := 0; i < steps; i++ {
		in.steps[0](st)
	}
	m.after = in.full(stats)
	in.slice.Store(-1)
	if rec != nil {
		rec.on.Store(false)
	}
	in.collect(stats, m)
	return m
}
