// Command drbacd runs a dRBAC wallet server: a credential repository
// answering publication, query, subscription, and revocation requests over
// the authenticated TCP transport (§4).
//
// Usage:
//
//	drbacd -key bigisp.key -listen 127.0.0.1:7100 [-load bundles/] [-strict]
//	       [-replica-of host:port[,host:port...]]
//	       [-cluster shard:0@map.json | gateway@map.json]
//	       [-dht [-bootstrap host:port[,host:port]] [-announce host:port[,host:port]]]
//	       [-http 127.0.0.1:7190] [-log-level debug] [-log-json]
//
// With -replica-of the daemon runs as a read-only follower replica (§9): it
// bootstraps from the upstream wallet's snapshot, applies its changelog
// stream in sequence order, and refuses publish/revoke requests while
// serving queries — a horizontally scaled read path for a busy home wallet.
//
// With -cluster shard:N@MAP the daemon serves one shard of a consistent-hash
// wallet cluster (§12): the map file names every shard's replica group, N
// this member's shard. The server advertises the map epoch on connect and
// refuses mis-routed or stale-epoch mutations with redirects carrying the
// fresh map. The file is re-read when its mtime changes (checked every
// 10 s, with the sweeps) and newer epochs adopted live, so a reshard is a
// map-file rollout; /readyz reports an unreadable or unadoptable map as
// not-ready.
//
// With -cluster gateway@MAP the daemon serves the whole cluster as one
// logical wallet (§12.3): mutations route to the owning shard, object
// queries scatter-gather across shards, and direct queries assemble
// cross-shard proof chains. The gateway holds no durable state of its own —
// only a TTL-coherent assembly cache — so -state, -load, and -replica-of are
// rejected alongside it. The map file is watched exactly like a member's.
//
// With -dht the daemon joins the coalition's decentralized discovery and
// membership layer (§13): it serves dht-*/gossip-* requests, announces a
// signed provider record for its owner entity (the -announce addresses,
// defaulting to -listen) on startup and on shard-map adoption, bootstraps
// through the -bootstrap seed wallets (none starts a lone seed), and fans
// gossip liveness verdicts into every peer pool so a dead member trips
// circuit breakers coalition-wide. A gateway's shard map may then name
// members as dht:<entity-fingerprint> instead of host:port; such entries
// are resolved through the DHT at dial time.
//
// Every connection the daemon serves or dials speaks the binary wire codec
// (SPEC §14); a peer whose handshake does not offer it — a build that
// predates codec negotiation, or one started with the retired -wire json —
// is refused.
//
// The -load directory may contain delegation bundle files (as written by
// `drbac delegate`) that are published into the wallet at startup, in
// filename order, so support proofs can precede their dependents.
//
// The optional -http listener serves operational endpoints: /metrics
// (Prometheus text), /healthz (liveness: JSON wallet summary), /readyz
// (readiness: 503 with a reason while the store is failing or a replica is
// disconnected/lagging), /debug/traces (retained trace list and per-trace
// span trees), and /debug/pprof. All logging is structured (log/slog);
// -log-level debug adds the per-request audit records and proof-search
// spans, and queries at or above -trace-slow log at warn regardless of
// level. -trace-slow is the one observability setting; the trace ring, the
// sampling rate, the SLO thresholds and the /readyz lag bound are the
// constants below.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/keyfile"
	"drbac/internal/logstore"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/replica"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// Fixed observability tuning; bench/workload.go's drbacdObs mirrors it.
const (
	traceRetain   = 256                   // completed traces kept for /debug/traces
	traceSample   = 1.0                   // head-sampling rate of traces neither slow nor erred
	sloQueryP99   = 5 * time.Millisecond  // drbac_slo_query_* threshold
	sloPublishP99 = 25 * time.Millisecond // drbac_slo_publish_* threshold
	readyMaxLag   = 30 * time.Second      // replica lag at which /readyz reports 503
)

// sweepEvery paces the expiry and staleness sweeps and the shard-map poll.
const sweepEvery = 10 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drbacd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("drbacd", flag.ContinueOnError)
	keyPath := fs.String("key", "", "wallet operator identity file")
	listen := fs.String("listen", "127.0.0.1:7100", "listen address")
	load := fs.String("load", "", "directory of delegation bundles to publish at startup")
	state := fs.String("state", "", "wallet state path, a segmented log directory: restored at startup, appended to on every publication and revocation (a legacy JSON state file at the path is migrated in place once, keeping a .bak)")
	replicaOf := fs.String("replica-of", "", "run as a read-only follower replica of the wallet at host:port[,host:port...] (§9); mutations are refused")
	clusterFlag := fs.String("cluster", "", "take part in the wallet cluster of a shard map file (JSON, re-read on mtime change): shard:N@MAP serves shard N of it, gateway@MAP serves a routing gateway over the whole cluster (excludes -replica-of, -load, -state)")
	strict := fs.Bool("strict", false, "require attribute-assignment rights")
	httpAddr := fs.String("http", "", "debug listen address serving /metrics, /healthz, /readyz, /debug/traces, /debug/pprof (empty disables)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := fs.Bool("log-json", false, "write logs as JSON instead of text")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "duration at or above which a trace or query counts as slow: slow traces are always retained and slow queries logged at warn")
	dhtOn := fs.Bool("dht", false, "participate in the coalition DHT and gossip membership: serve dht-*/gossip-* requests, announce this wallet's provider record, and gate peer pools on gossip liveness verdicts")
	bootstrap := fs.String("bootstrap", "", "comma-separated seed wallet addresses to join the DHT and gossip ring through (requires -dht; empty starts a lone seed)")
	announce := fs.String("announce", "", "comma-separated addresses published in this wallet's DHT provider record (requires -dht; default: the -listen address)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" {
		return fmt.Errorf("-key is required")
	}
	if !*dhtOn && (*bootstrap != "" || *announce != "") {
		return fmt.Errorf("-bootstrap and -announce require -dht")
	}
	cl, ok := parseClusterSpec(*clusterFlag)
	if !ok || cl.gateway && (*replicaOf != "" || *load != "" || *state != "") {
		return fmt.Errorf("-cluster %q: want shard:N@MAP, or gateway@MAP without -replica-of, -load or -state (a gateway keeps no state of its own)", *clusterFlag)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)
	o := obs.New(logger, obs.NewRegistry())
	o.SetCollector(obs.NewCollector(o.Registry(), obs.CollectorConfig{
		Capacity:      traceRetain,
		SlowThreshold: *traceSlow,
		SampleRate:    traceSample,
	}))
	// SLOs must exist before the wallet is built: the wallet resolves them
	// once at construction.
	o.RegisterSLO(obs.NewSLO(o.Registry(), "query", sloQueryP99, 0, 0))
	o.RegisterSLO(obs.NewSLO(o.Registry(), "publish", sloPublishP99, 0, 0))
	build := obs.RegisterBuildInfo(o.Registry())

	f, err := keyfile.ReadIdentity(*keyPath)
	if err != nil {
		return err
	}
	owner, err := f.Identity()
	if err != nil {
		return err
	}

	var (
		w           *wallet.Wallet
		closeStore  = func() {}
		storeHealth func() error
		gw          *cluster.Wallet
		shardWatch  *shardMapWatcher
		rt          *dhtRuntime
	)
	if *dhtOn {
		// Before the cluster pieces: a gateway resolves dht:<fingerprint>
		// shard members through this node.
		rt, err = startDHT(owner, *listen, *announce, *bootstrap, o)
		if err != nil {
			return err
		}
		defer rt.close()
		logger.Info("dht member", "id", rt.node.Self().ID.Short(),
			"announce", rt.addrs, "bootstrap", rt.seeds)
	}
	if !cl.gateway {
		w, closeStore, storeHealth, err = openWallet(owner, *state, *strict, o)
		if err != nil {
			return err
		}
		if *state != "" {
			logger.Info("state restored",
				"delegations", w.Len(), "revocations", w.Stats().Revoked,
				"seq", w.Seq(), "path", *state)
		}
		if *load != "" {
			n, err := loadBundles(w, *load)
			if err != nil {
				return err
			}
			logger.Info("bundles loaded", "delegations", n, "dir", *load)
		}
	}
	defer closeStore()

	role := "primary"
	var follower *replica.Follower
	if *replicaOf != "" {
		role = "replica"
		follower, err = replica.Start(replica.Config{
			Local:  w,
			Addrs:  remote.SplitAddrs(*replicaOf),
			Dialer: &transport.TCPDialer{Identity: owner},
			Obs:    o,
		})
		if err != nil {
			return err
		}
		defer follower.Close()
		logger.Info("replicating", "upstream", *replicaOf)
	}

	var node *cluster.Node
	if cl.mapPath != "" && !cl.gateway {
		node, shardWatch, err = newShardMember(cl.mapPath, cl.shard, o)
		if err != nil {
			return err
		}
		role = fmt.Sprintf("shard-%d", cl.shard)
		logger.Info("cluster member",
			"shard", cl.shard, "epoch", node.Current().Epoch,
			"shards", len(node.Current().Shards), "map", cl.mapPath)
	}
	if cl.gateway {
		gw, shardWatch, err = newClusterGateway(cl.mapPath, owner, o, rt)
		if err != nil {
			return err
		}
		defer gw.Close()
		if rt != nil {
			rt.addVerdictPool(gw.Router().Peers())
		}
		role = "gateway"
		// The gateway's local wallet is its TTL-coherent assembly cache:
		// it backs /healthz and the staleness sweeps below.
		w = gw.Local()
		logger.Info("cluster gateway",
			"epoch", gw.Router().Epoch(), "shards", len(gw.Router().Current().Shards),
			"map", cl.mapPath)
	}

	ln, err := transport.ListenTCP(*listen, owner)
	if err != nil {
		return err
	}
	var (
		guard remote.ClusterGuard
		svc   wallet.Service = w
	)
	if node != nil {
		guard = node
	}
	if gw != nil {
		guard, svc = gw.Guard(), gw
	}
	opts := remote.Options{
		Obs:      o,
		Role:     role,
		ReadOnly: follower != nil,
		Cluster:  guard,
	}
	if rt != nil {
		opts.DHT = rt.node
		opts.Gossip = rt.gossip
		opts.DHTStats = rt.stats
	}
	srv := remote.ServeOptions(svc, ln, opts)
	defer srv.Close()
	if rt != nil {
		// Join and announce once the server answers dht-* requests, so
		// peers contacted during bootstrap can immediately query us back.
		rt.join()
		if shardWatch != nil {
			shardWatch.onAdopt = rt.reannounce
		}
	}
	logger.Info("serving",
		"owner", owner.Name(), "id", owner.ID().Short(), "addr", ln.Addr(), "role", role,
		"version", build["version"], "go", build["goversion"])

	if *httpAddr != "" {
		dln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		hsrv := &http.Server{Handler: newDebugMux(o, w, role, follower, storeHealth, shardWatch)}
		defer hsrv.Close()
		go func() {
			if err := hsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		logger.Info("debug listener", "addr", dln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(sweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if n := w.SweepExpired(); n > 0 {
				logger.Info("swept expired delegations", "count", n)
			}
			if n := w.SweepStaleCache(); n > 0 {
				logger.Info("swept stale cached delegations", "count", n)
			}
			if shardWatch != nil {
				shardWatch.poll(o)
			}
		case <-ctx.Done():
			logger.Info("shutting down")
			return nil
		}
	}
}

// health is the /healthz payload: liveness plus the wallet-state summary an
// operator checks first. Replication fields appear only on a replica.
type health struct {
	Status      string `json:"status"`
	Role        string `json:"role"`
	Delegations int    `json:"delegations"`
	Revoked     int    `json:"revoked"`
	TTLTracked  int    `json:"ttlTracked"`
	Watches     int    `json:"watches"`
	Seq         uint64 `json:"seq"`
	AppliedSeq  uint64 `json:"appliedSeq,omitempty"`
	LagSeconds  int64  `json:"lagSeconds,omitempty"`
	Resyncs     int64  `json:"resyncs,omitempty"`
	Upstream    string `json:"upstream,omitempty"`
	Connected   *bool  `json:"upstreamConnected,omitempty"`
}

// readiness is the /readyz payload. Liveness (/healthz) answers "is the
// process up"; readiness answers "should this wallet be taking traffic" —
// no while the durable store has failed an fsync or compaction, or while a
// replica is disconnected from its upstream or lagging beyond readyMaxLag.
type readiness struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// notReady explains why the daemon should be out of rotation, or "" when it
// is ready. storeHealth is nil when the daemon runs without -state;
// shardWatch is nil outside a cluster.
func notReady(follower *replica.Follower, storeHealth func() error, shardWatch *shardMapWatcher) string {
	if storeHealth != nil {
		if err := storeHealth(); err != nil {
			return "store: " + err.Error()
		}
	}
	if follower != nil {
		rs := follower.Status()
		if !rs.Connected {
			return "replica: upstream disconnected"
		}
		if rs.LagSeconds > int64(readyMaxLag/time.Second) {
			return fmt.Sprintf("replica: lag %ds exceeds %s", rs.LagSeconds, readyMaxLag)
		}
	}
	if reason := shardWatch.notReady(); reason != "" {
		return reason
	}
	return ""
}

// newDebugMux builds the -http endpoint set: Prometheus metrics, a JSON
// health summary, the readiness probe, retained traces, and the standard
// pprof handlers. follower is nil on a primary; storeHealth is nil when the
// daemon runs without -state.
func newDebugMux(o *obs.Obs, w *wallet.Wallet, role string, follower *replica.Follower, storeHealth func() error, shardWatch *shardMapWatcher) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(o.Registry()))
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, _ *http.Request) {
		reason := notReady(follower, storeHealth, shardWatch)
		rw.Header().Set("Content-Type", "application/json")
		if reason != "" {
			rw.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(rw).Encode(readiness{Ready: reason == "", Reason: reason})
	})
	if col := o.TraceCollector(); col != nil {
		th := obs.TracesHandler(col)
		mux.Handle("/debug/traces", th)
		mux.Handle("/debug/traces/", th)
	}
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		st := w.Stats()
		h := health{
			Status:      "ok",
			Role:        role,
			Delegations: st.Delegations,
			Revoked:     st.Revoked,
			TTLTracked:  st.TTLTracked,
			Watches:     st.Watches,
			Seq:         w.Seq(),
		}
		if follower != nil {
			rs := follower.Status()
			h.AppliedSeq = rs.AppliedSeq
			h.LagSeconds = rs.LagSeconds
			h.Resyncs = rs.Resyncs
			h.Upstream = rs.Upstream
			h.Connected = &rs.Connected
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(h)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// openWallet builds the daemon's wallet. With a state path the wallet sits
// on the segmented log store: every publication and revocation persists
// before the request is acknowledged, and a restarted daemon replays the
// store — including the revocation set, so previously revoked credentials
// stay refused — at construction. Without one it runs on memory alone. The
// returned closer flushes and releases the store; call it at shutdown. The
// returned health func reports store failures (fsync, compaction) for the
// readiness probe; nil without a state path.
func openWallet(owner *core.Identity, statePath string, strict bool, o *obs.Obs) (*wallet.Wallet, func(), func() error, error) {
	cfg := wallet.Config{Owner: owner, StrictAttributes: strict, Obs: o}
	if statePath == "" {
		return wallet.New(cfg), func() {}, nil, nil
	}
	st, err := openLogStore(statePath, o)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Store = st
	return wallet.New(cfg), func() { _ = st.Close() }, st.Health, nil
}

// openLogStore opens the segmented log store at path, migrating a legacy
// JSON state file found there first. Migration is crash-safe and idempotent:
// the log is seeded in a .migrating directory, the original file moves to
// .bak, and the directory renames into place — reopening after a crash in
// any window either redoes the seeding from the still-present file or
// finishes the final rename.
func openLogStore(path string, o *obs.Obs) (*logstore.Store, error) {
	fi, err := os.Stat(path)
	switch {
	case err == nil && !fi.IsDir():
		if err := migrateJSONToLog(path); err != nil {
			return nil, fmt.Errorf("migrating %s to a log store: %w", path, err)
		}
	case os.IsNotExist(err):
		// A crash after the file moved to .bak but before the seeded
		// directory renamed into place leaves only the .migrating dir:
		// seeding completed (the rename only happens after a clean close),
		// so finishing the rename completes the migration.
		if mfi, merr := os.Stat(path + ".migrating"); merr == nil && mfi.IsDir() {
			if err := os.Rename(path+".migrating", path); err != nil {
				return nil, fmt.Errorf("finishing interrupted migration of %s: %w", path, err)
			}
			if err := wallet.SyncDir(filepath.Dir(path)); err != nil {
				return nil, err
			}
		}
	case err != nil:
		return nil, err
	}
	return logstore.Open(path, logstore.Options{Obs: o})
}

// migrateJSONToLog seeds a fresh log store from a legacy JSON state file
// and swaps it into the file's place, leaving the original as .bak.
func migrateJSONToLog(path string) error {
	old, err := wallet.ReadLegacyState(path)
	if err != nil {
		return err
	}
	tmp := path + ".migrating"
	// A half-seeded directory from an earlier crash is redone from scratch;
	// the original file is still authoritative.
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	ls, err := logstore.Open(tmp, logstore.Options{CompactInterval: -1})
	if err != nil {
		return err
	}
	revs, bundles := old.Revocations, old.Bundles
	sort.Slice(revs, func(i, j int) bool { return revs[i].ID < revs[j].ID })
	sort.Slice(bundles, func(i, j int) bool {
		return bundles[i].Delegation.ID() < bundles[j].Delegation.ID()
	})
	// Seed seqs end exactly at the old store's high-water mark (or the
	// mutation count if it never recorded one), so wallet changelog numbers
	// never regress across the migration.
	seq := uint64(0)
	if n := uint64(len(revs) + len(bundles)); old.Seq > n {
		seq = old.Seq - n
	}
	for _, r := range revs {
		seq++
		if _, err := ls.AddRevocation(seq, r.ID, r.At); err != nil {
			_ = ls.Close()
			return err
		}
	}
	for _, b := range bundles {
		seq++
		if err := ls.PutDelegation(seq, b.Delegation, b.Support); err != nil {
			_ = ls.Close()
			return err
		}
	}
	if err := ls.Close(); err != nil {
		return err
	}
	if err := os.Rename(path, path+".bak"); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return wallet.SyncDir(filepath.Dir(path))
}

func loadBundles(w *wallet.Wallet, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		b, err := keyfile.ReadBundle(filepath.Join(dir, name))
		if err != nil {
			return n, fmt.Errorf("load %s: %w", name, err)
		}
		if err := w.Publish(b.Delegation, b.Support...); err != nil {
			return n, fmt.Errorf("publish %s: %w", name, err)
		}
		n++
	}
	return n, nil
}
