// Package remote serves a wallet over the authenticated transport and
// provides the client stubs used by distributed discovery (§4.2): remote
// publication, the three query kinds, delegation subscriptions with push
// notifications, revocation, home-wallet authorization proofs, and metrics
// snapshots.
package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// serverMetrics holds the server's pre-resolved instruments; the zero
// value is inert (nil instruments no-op).
type serverMetrics struct {
	requests    *obs.Counter
	errors      *obs.Counter
	noProof     *obs.Counter
	pushes      *obs.Counter
	pushErrors  *obs.Counter
	overflows   *obs.Counter
	connections *obs.Counter
	handshakes  *obs.Counter
	activeConns *obs.Gauge
	latency     *obs.Histogram
}

func newServerMetrics(o *obs.Obs) serverMetrics {
	if o.Registry() == nil {
		return serverMetrics{}
	}
	return serverMetrics{
		requests:    o.Counter("drbac_server_requests_total"),
		errors:      o.Counter("drbac_server_errors_total"),
		noProof:     o.Counter("drbac_server_noproof_total"),
		pushes:      o.Counter("drbac_server_pushes_total"),
		pushErrors:  o.Counter("drbac_server_push_errors_total"),
		overflows:   o.Counter("drbac_server_stream_overflows_total"),
		connections: o.Counter("drbac_server_connections_total"),
		handshakes:  o.Counter("drbac_server_handshake_failures_total"),
		activeConns: o.Registry().Gauge("drbac_server_active_connections"),
		latency:     o.Histogram("drbac_server_request_seconds"),
	}
}

// ClusterGuard lets a sharded deployment enforce shard ownership and
// epoch freshness at the serving edge. remote stays ignorant of ring
// mechanics: the guard (implemented by internal/cluster) decides, and the
// server only relays redirects. A nil guard serves unclustered.
type ClusterGuard interface {
	// MapResp answers a TShardMap request with the full serialized map.
	MapResp() (wire.ShardMapResp, error)
	// Check authorizes a mutation stamped with the caller's epoch (0 =
	// unstamped). subject is the subject node of a durable publish's
	// delegation, whose owner must be this shard; nil checks the epoch only
	// (revoke carries no subject key). A non-nil redirect refuses it.
	Check(reqEpoch uint64, subject *core.Subject) *wire.Redirect
	// Stats reports the cluster section of a stats response.
	Stats() *wire.ClusterStats
}

// DHTHandler serves the DHT side of the protocol (find-node, find-value,
// store). Like ClusterGuard it keeps remote ignorant of routing mechanics:
// internal/dht implements it, remote only relays. The caller's identity is
// the transport-authenticated peer entity — handlers derive the requester's
// contact ID from it, never from bytes claimed in the request body.
type DHTHandler interface {
	// HandleFindNode answers with the closest known contacts to the target.
	HandleFindNode(from core.Entity, req wire.DHTFindReq) (wire.DHTFindResp, error)
	// HandleFindValue answers with the held record for the target key, or
	// the closest contacts when the node does not hold it.
	HandleFindValue(from core.Entity, req wire.DHTFindReq) (wire.DHTFindResp, error)
	// HandleStore verifies and stores an offered provider record. An error
	// refuses the record (and is reported to the caller).
	HandleStore(from core.Entity, req wire.DHTStoreReq) error
	// Stats reports the dht section of a stats response.
	Stats() *wire.DHTStats
}

// RedirectError is a shard-routing refusal: the request was stamped with
// a stale epoch or sent to a shard that does not own its key. It crosses
// the wire as ErrorResp.Redirect; clients adopt the carried map and retry
// against the owning shard.
type RedirectError struct {
	Msg      string
	Redirect wire.Redirect
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("%s (owner shard %d, epoch %d)", e.Msg, e.Redirect.Shard, e.Redirect.Epoch)
}

// Server exposes one wallet to the network.
type Server struct {
	w wallet.Service
	// rep is w's replication side, when it has one (a cluster gateway has
	// none).
	rep      wallet.Replicable
	ln       transport.Listener
	obs      *obs.Obs
	m        serverMetrics
	readOnly bool
	// serves holds, indexed by wire.Tier, whether this server serves that
	// tier, worked out once by ServeOptions from what it was given; handle
	// refuses the requests of the others.
	serves [wire.TierDHT + 1]bool
	role   string
	guard  ClusterGuard
	dht    DHTHandler
	// directFallback, when set, is consulted after a direct query misses
	// the wallet — the hook hierarchical caching proxies use to pull
	// credentials through from an upstream wallet (§6).
	directFallback func(context.Context, wallet.Query) (*core.Proof, error)

	// baseCtx parents every request handled by this server; Close cancels
	// it so in-flight fallback pulls and queries unwind promptly.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu     sync.Mutex
	conns  map[transport.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Options customizes a served wallet.
type Options struct {
	// DirectFallback runs when a direct query finds no proof locally; a
	// non-nil proof it returns is served to the client. Used by
	// pull-through caches. The context is canceled when the server closes.
	DirectFallback func(context.Context, wallet.Query) (*core.Proof, error)
	// Obs, if non-nil, receives the server's structured request/audit log
	// (who published/queried/revoked what, proof found or not, latency)
	// and request/push/connection metrics. Share the wallet's Obs so one
	// registry exports the whole daemon.
	Obs *obs.Obs
	// ReadOnly rejects state-changing requests (publish, revoke): a
	// follower replica serves queries, subscriptions, and sync, while
	// mutations must go to the primary (§9).
	ReadOnly bool
	// Role labels this server's replication role in stats responses
	// ("primary" or "replica"); empty omits the field.
	Role string
	// Cluster, if non-nil, makes this server a shard-cluster member: it
	// answers shardmap requests and refuses mis-routed or stale-epoch
	// mutations with redirects the guard decides.
	Cluster ClusterGuard
	// DHT, if non-nil, serves dht-find-node/find-value/store requests and
	// the dht section of stats responses. Daemons without `-dht` answer
	// those requests with an error.
	DHT DHTHandler
}

// ErrReadOnly reports a mutation request sent to a read-only replica.
var ErrReadOnly = errors.New("wallet is a read-only replica; send mutations to the primary")

// Serve starts accepting connections for w on ln. Close shuts it down.
// The served wallet's own Obs (if any) also observes the server, so a
// wallet-plus-server daemon needs a single bundle. w is usually a
// *wallet.Wallet; a cluster gateway passes its scatter-gather service.
func Serve(w wallet.Service, ln transport.Listener) *Server {
	return ServeOptions(w, ln, Options{Obs: w.Obs()})
}

// ServeOptions is Serve with customization. The wire.Tier set the server
// serves follows from what it is given: the wallet tier always, replication
// when w is wallet.Replicable, and the cluster and DHT tiers when opts
// carries their guard or handler.
func ServeOptions(w wallet.Service, ln transport.Listener, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	rep, _ := w.(wallet.Replicable)
	s := &Server{
		w:              w,
		rep:            rep,
		ln:             ln,
		obs:            opts.Obs,
		m:              newServerMetrics(opts.Obs),
		readOnly:       opts.ReadOnly,
		role:           opts.Role,
		guard:          opts.Cluster,
		dht:            opts.DHT,
		directFallback: opts.DirectFallback,
		baseCtx:        ctx,
		cancelAll:      cancel,
		conns:          make(map[transport.Conn]bool),
		serves: [...]bool{
			wire.TierWallet:      true,
			wire.TierReplication: rep != nil,
			wire.TierCluster:     opts.Cluster != nil,
			wire.TierDHT:         opts.DHT != nil,
		},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the served address.
func (s *Server) Addr() string { return s.ln.Addr() }

// Close stops the listener, tears down every connection, and waits for the
// handler goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cancelAll()
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if err := s.ln.Close(); err != nil {
		s.obs.Log().Debug("server listener close", "error", err)
	}
	for _, c := range conns {
		if err := c.Close(); err != nil {
			s.obs.Log().Debug("server connection close", "error", err)
		}
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			// One peer failing its handshake (garbage bytes, a dialer that
			// gave up halfway) costs that connection, not the listener.
			if errors.Is(err, transport.ErrHandshake) {
				s.m.handshakes.Inc()
				s.obs.Log().Warn("server handshake failed", "error", err)
				continue
			}
			s.obs.Log().Warn("server accept failed", "error", err)
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.m.connections.Inc()
		s.m.activeConns.Add(1)
		s.obs.Log().Debug("connection open", "peer", conn.Peer().ID().Short())
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// connState tracks per-connection subscription cancels and serializes
// writes (responses can interleave with notification pushes).
type connState struct {
	conn transport.Conn
	// peer is the authenticated peer's short fingerprint, rendered once per
	// connection for the audit log.
	peer string

	writeMu sync.Mutex
	subMu   sync.Mutex
	cancels map[core.DelegationID]func()
	// streamStop tears down this connection's changelog stream
	// (subscribe-all), when one is active. Guarded by subMu; idempotent.
	streamStop func()
}

func (cs *connState) send(t wire.MsgType, id uint64, body any) error {
	frame, err := codec.Encode(t, id, body)
	if err != nil {
		return err
	}
	cs.writeMu.Lock()
	err = cs.conn.Send(frame)
	cs.writeMu.Unlock()
	// Send fully consumes the frame before returning, so the encode buffer
	// can go straight back to the pool either way.
	bufpool.Put(frame)
	return err
}

func (cs *connState) sendErr(id uint64, err error) {
	resp := wire.ErrorResp{Message: err.Error(), NoProof: errors.Is(err, core.ErrNoProof)}
	var rd *RedirectError
	if errors.As(err, &rd) {
		resp.Message = rd.Msg
		resp.Redirect = &rd.Redirect
	}
	_ = cs.send(wire.TError, id, resp)
}

// maxInflightPerConn bounds concurrently served requests per connection;
// beyond it the read loop blocks, pushing back on the peer instead of
// spawning unbounded goroutines.
const maxInflightPerConn = 64

func (s *Server) handleConn(conn transport.Conn) {
	defer s.wg.Done()
	peer := conn.Peer().ID().Short()
	cs := &connState{
		conn:    conn,
		peer:    peer,
		cancels: make(map[core.DelegationID]func()),
	}
	var inflight sync.WaitGroup
	defer func() {
		inflight.Wait()
		cs.subMu.Lock()
		for _, cancel := range cs.cancels {
			cancel()
		}
		cs.cancels = nil
		stop := cs.streamStop
		cs.streamStop = nil
		cs.subMu.Unlock()
		if stop != nil {
			stop()
		}
		if err := conn.Close(); err != nil {
			s.obs.Log().Debug("connection close", "peer", peer, "error", err)
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.m.activeConns.Add(-1)
		s.obs.Log().Debug("connection closed", "peer", peer)
	}()

	// Requests are served concurrently: slow proof searches must not stall
	// the pipeline behind them. Clients correlate responses by envelope ID,
	// so completion order is free to differ from arrival order.
	sem := make(chan struct{}, maxInflightPerConn)
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		env, err := codec.Decode(frame)
		if err != nil {
			// Protocol violation: drop the connection.
			s.obs.Log().Warn("protocol violation", "peer", peer, "error", err)
			return
		}
		sem <- struct{}{}
		inflight.Add(1)
		go func(env wire.Envelope, frame []byte) {
			defer func() {
				<-sem
				inflight.Done()
			}()
			s.dispatch(cs, env)
			// dispatch has decoded the body and sent the response; nothing
			// retains the request frame (DecodeBody copies every field it
			// keeps), so the receive buffer can be recycled.
			bufpool.Put(frame)
		}(env, frame)
	}
}

// dispatch serves one request, then meters it and emits the audit record:
// request type, authenticated peer, per-type detail (delegation, query
// subject/object, proof found), trace ID when the caller sent one, outcome,
// and latency.
func (s *Server) dispatch(cs *connState, env wire.Envelope) {
	start := time.Now()
	attrs, err := s.handle(cs, env)
	if err != nil {
		cs.sendErr(env.ID, err)
	}
	s.m.requests.Inc()
	s.m.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		if errors.Is(err, core.ErrNoProof) {
			s.m.noProof.Inc()
		} else {
			s.m.errors.Inc()
		}
	}
	if s.obs != nil {
		rec := make([]any, 0, len(attrs)+8)
		rec = append(rec, "type", string(env.Type), "peer", cs.peer)
		rec = append(rec, attrs...)
		rec = append(rec, "duration_ms", float64(time.Since(start).Microseconds())/1000)
		if err != nil {
			rec = append(rec, "error", err.Error())
		}
		s.obs.Log().Info("request", rec...)
	}
}

// serveSpan opens the server-side span for a traced query: a local root
// continuing the caller's trace, parented under the caller's span ID so a
// merged cross-wallet trace nests this hop below the query that caused it.
// The returned context carries the span down into the wallet (and the
// proxy fallback). Untraced requests get a nil span and the base context.
func (s *Server) serveSpan(req *wire.QueryReq, name string, args []any) (context.Context, *obs.Span) {
	if s.obs == nil || req.TraceID == "" {
		return s.baseCtx, nil
	}
	sp := s.obs.StartServerSpan(req.TraceID, req.SpanID, name, args...)
	return obs.ContextWithSpan(s.baseCtx, sp), sp
}

// handle serves one request: the wire.Messages row says whether the type is
// a request at all, who may be sent it and which type its success reply goes
// out under, the handler set says who serves it. It is the one place a
// request is refused for what this server is; handlers only refuse what a
// request asks. It returns audit-log attributes; a returned error is sent by
// dispatch.
func (s *Server) handle(cs *connState, env wire.Envelope) ([]any, error) {
	msg, h := wire.Lookup(env.Type), handlers[env.Type]
	switch {
	case msg == nil || msg.Reply == "" || h == nil:
		// Not in the protocol, or a reply, push or reserved type.
		return nil, fmt.Errorf("unknown request type %q", env.Type)
	case !s.serves[msg.Tier]:
		return nil, fmt.Errorf("%s: wallet does not serve %s requests", env.Type, msg.Tier)
	case msg.Mutates && s.readOnly:
		return nil, fmt.Errorf("%s: %w", env.Type, ErrReadOnly)
	}
	reply, attrs, err := h(s, cs, msg, env)
	if err != nil {
		return attrs, err
	}
	return attrs, cs.send(msg.Reply, env.ID, reply)
}

// handler serves one request type: it returns the success reply's body
// (nil for none) and the request's audit-log attributes.
type handler func(s *Server, cs *connState, msg *wire.Message, env wire.Envelope) (reply any, attrs []any, err error)

// on adapts a handler that takes a decoded body — the one place request
// bodies are decoded.
func on[Req any](serve func(*Server, *connState, *Req) (any, []any, error)) handler {
	return func(s *Server, cs *connState, msg *wire.Message, env wire.Envelope) (any, []any, error) {
		var req Req
		if len(env.Body) > 0 || !msg.BodyOptional {
			if err := wire.DecodeBody(env, &req); err != nil {
				return nil, nil, err
			}
		}
		return serve(s, cs, &req)
	}
}

// bare adapts a handler for a request that carries no body.
func bare(serve func(*Server, *connState) (any, []any, error)) handler {
	return func(s *Server, cs *connState, _ *wire.Message, _ wire.Envelope) (any, []any, error) {
		return serve(s, cs)
	}
}

// handlers is the server's whole dispatch: one entry per request row of
// wire.Messages (TestHandlersCoverRequestRows holds the two together).
var handlers = map[wire.MsgType]handler{
	wire.TPing:         bare(func(*Server, *connState) (any, []any, error) { return nil, nil, nil }),
	wire.TPublish:      on((*Server).publish),
	wire.TQueryDirect:  on((*Server).queryDirect),
	wire.TQuerySubject: on(queryAll(false)),
	wire.TQueryObject:  on(queryAll(true)),
	wire.TSubscribe:    on((*Server).subscribeOne),
	wire.TUnsubscribe:  on((*Server).unsubscribe),
	wire.TRevoke:       on((*Server).revoke),
	wire.TProveRole:    on((*Server).proveRole),
	wire.THas:          on((*Server).has),
	wire.TStats:        bare((*Server).stats),
	wire.TSync:         bare((*Server).sync),
	wire.TSubscribeAll: bare((*Server).subscribeAll),
	wire.TTrace:        on((*Server).trace),
	wire.TShardMap:     bare((*Server).shardMap),
	wire.TDHTFindNode:  on(dhtFind(false)),
	wire.TDHTFindValue: on(dhtFind(true)),
	wire.TDHTStore:     on((*Server).dhtStore),
}

func (s *Server) publish(_ *connState, req *wire.PublishReq) (any, []any, error) {
	// A malformed request is refused before the guard or the wallet sees
	// it: a negative TTL is neither a cached copy nor a durable publish.
	d := req.Delegation
	if d == nil {
		return nil, nil, errors.New("publish: malformed request: no delegation")
	}
	attrs := []any{"delegation", d.ID().Short(), "ttl_s", req.TTLSeconds}
	if req.TTLSeconds < 0 {
		return nil, attrs, fmt.Errorf("publish: malformed request: negative ttlSeconds %d", req.TTLSeconds)
	}
	// TTL-cached copies are a local caching concern (§4.2.1), not
	// partitioned state, so the shard guard does not see them.
	if req.TTLSeconds > 0 {
		return nil, attrs, s.w.InsertCached(d, req.Support, time.Duration(req.TTLSeconds)*time.Second)
	}
	// Shard guard: durable publishes must land on the owning shard under a
	// fresh epoch.
	if s.serves[wire.TierCluster] {
		if rd := s.guard.Check(req.ShardEpoch, &d.Subject); rd != nil {
			return nil, attrs, &RedirectError{Msg: "publish refused: wrong shard or stale epoch", Redirect: *rd}
		}
	}
	return nil, attrs, s.w.Publish(d, req.Support...)
}

func (s *Server) queryDirect(_ *connState, req *wire.QueryReq) (any, []any, error) {
	// The audit attributes are rendered once and sized once; the span
	// (traced requests only) borrows the subject/object pairs from them.
	attrs := make([]any, 0, 8)
	attrs = append(attrs, "trace", req.TraceID, "subject", req.Subject.String(), "object", req.Object.String())
	ctx, sp := s.serveSpan(req, "serve:query-direct", attrs[2:6:6])
	q := wallet.Query{
		Ctx:         ctx,
		Subject:     req.Subject,
		Object:      req.Object,
		Constraints: req.Constraints,
		Direction:   req.Direction,
		TraceID:     req.TraceID,
	}
	p, err := s.w.QueryDirect(q)
	if err != nil && errors.Is(err, core.ErrNoProof) && s.directFallback != nil {
		p, err = s.directFallback(ctx, q)
	}
	if err != nil && !errors.Is(err, core.ErrNoProof) {
		sp.Fail(err)
	}
	sp.End("found", err == nil)
	return wire.ProofResp{Proof: p}, append(attrs, "found", err == nil), err
}

// queryAll serves query-subject and, with object set, query-object: the
// same search from the other end of the chain.
func queryAll(object bool) func(*Server, *connState, *wire.QueryReq) (any, []any, error) {
	return func(s *Server, _ *connState, req *wire.QueryReq) (any, []any, error) {
		attrs := make([]any, 0, 6)
		attrs = append(attrs, "trace", req.TraceID)
		var proofs []*core.Proof
		if object {
			attrs = append(attrs, "object", req.Object.String())
			_, sp := s.serveSpan(req, "serve:query-object", attrs[2:4:4])
			proofs = s.w.QueryObject(req.Object, req.Constraints)
			sp.End("results", len(proofs))
		} else {
			attrs = append(attrs, "subject", req.Subject.String())
			_, sp := s.serveSpan(req, "serve:query-subject", attrs[2:4:4])
			proofs = s.w.QuerySubject(req.Subject, req.Constraints)
			sp.End("results", len(proofs))
		}
		return wire.ProofsResp{Proofs: proofs}, append(attrs, "results", len(proofs)), nil
	}
}

func (s *Server) trace(_ *connState, req *wire.TraceReq) (any, []any, error) {
	spans := s.obs.TraceCollector().Spans(req.TraceID)
	attrs := []any{"trace", req.TraceID, "spans", len(spans)}
	return wire.TraceResp{Found: len(spans) > 0, Spans: spans}, attrs, nil
}

func (s *Server) subscribeOne(cs *connState, req *wire.SubscribeReq) (any, []any, error) {
	s.subscribe(cs, req.Delegation)
	return nil, []any{"delegation", req.Delegation.Short()}, nil
}

func (s *Server) unsubscribe(cs *connState, req *wire.SubscribeReq) (any, []any, error) {
	cs.subMu.Lock()
	if cancel, ok := cs.cancels[req.Delegation]; ok {
		cancel()
		delete(cs.cancels, req.Delegation)
	}
	cs.subMu.Unlock()
	return nil, []any{"delegation", req.Delegation.Short()}, nil
}

func (s *Server) revoke(cs *connState, req *wire.RevokeReq) (any, []any, error) {
	attrs := []any{"delegation", req.Delegation.Short()}
	if s.serves[wire.TierCluster] {
		if rd := s.guard.Check(req.ShardEpoch, nil); rd != nil {
			return nil, attrs, &RedirectError{Msg: "revoke refused: stale shard map epoch", Redirect: *rd}
		}
	}
	// Authorization: the authenticated peer must be the issuer.
	return nil, attrs, s.w.Revoke(req.Delegation, cs.conn.Peer().ID())
}

func (s *Server) has(_ *connState, req *wire.HasReq) (any, []any, error) {
	present := s.w.Contains(req.Delegation)
	return wire.HasResp{Present: present}, []any{"delegation", req.Delegation.Short(), "present", present}, nil
}

func (s *Server) proveRole(_ *connState, req *wire.ProveRoleReq) (any, []any, error) {
	attrs := []any{"role", req.Role.String()}
	owner := s.w.Owner()
	if owner == nil {
		return nil, attrs, fmt.Errorf("wallet has no operating identity")
	}
	p, err := s.w.QueryDirect(wallet.Query{
		Subject: core.SubjectEntity(owner.ID()),
		Object:  req.Role,
	})
	return wire.ProofResp{Proof: p}, attrs, err
}

func (s *Server) stats(cs *connState) (any, []any, error) {
	resp := s.statsResp()
	resp.Wire.ConnCodec = cs.conn.Codec()
	return resp, nil, nil
}

func (s *Server) shardMap(*connState) (any, []any, error) {
	resp, err := s.guard.MapResp()
	return resp, []any{"epoch", resp.Epoch, "shard", resp.Shard}, err
}

func (s *Server) sync(*connState) (any, []any, error) {
	snap := s.rep.Snapshot()
	resp := wire.SyncResp{Seq: snap.Seq, Revoked: snap.Revoked}
	resp.Bundles = make([]wire.SyncBundle, 0, len(snap.Bundles))
	for _, b := range snap.Bundles {
		resp.Bundles = append(resp.Bundles, wire.SyncBundle{Delegation: b.Delegation, Support: b.Support})
	}
	return resp, []any{"seq", snap.Seq, "bundles", len(resp.Bundles), "revoked", len(resp.Revoked)}, nil
}

// dhtFind serves dht-find-node and, with value set, dht-find-value.
func dhtFind(value bool) func(*Server, *connState, *wire.DHTFindReq) (any, []any, error) {
	return func(s *Server, cs *connState, req *wire.DHTFindReq) (any, []any, error) {
		find := s.dht.HandleFindNode
		if value {
			find = s.dht.HandleFindValue
		}
		resp, err := find(cs.conn.Peer(), *req)
		return resp, []any{"hit", resp.Record != nil, "contacts", len(resp.Contacts)}, err
	}
}

func (s *Server) dhtStore(cs *connState, req *wire.DHTStoreReq) (any, []any, error) {
	err := s.dht.HandleStore(cs.conn.Peer(), *req)
	return nil, []any{"accepted", err == nil}, err
}

// statsResp snapshots the served wallet and the shared metrics registry.
func (s *Server) statsResp() wire.StatsResp {
	ws := s.w.Stats()
	resp := wire.StatsResp{
		Role:               s.role,
		Seq:                s.w.Seq(),
		Delegations:        ws.Delegations,
		Revoked:            ws.Revoked,
		TTLTracked:         ws.TTLTracked,
		Watches:            ws.Watches,
		CacheHits:          ws.Cache.Hits,
		CacheMisses:        ws.Cache.Misses,
		CacheInvalidations: ws.Cache.Invalidations,
		CacheEntries:       ws.Cache.Entries,
		CacheNegatives:     ws.Cache.Negatives,
		SigCacheHits:       ws.SigCache.Hits,
		SigCacheMisses:     ws.SigCache.Misses,
		SigCacheEvictions:  ws.SigCache.Evictions,
		SigCacheSize:       ws.SigCache.Size,
		Metrics:            s.obs.Registry().Snapshot(),
	}
	if s.serves[wire.TierCluster] {
		resp.Cluster = s.guard.Stats()
	}
	if s.serves[wire.TierDHT] {
		resp.DHT = s.dht.Stats()
	}
	ws2 := wire.StatsSnapshot()
	resp.Wire = &ws2
	return resp
}

// subscribe wires a wallet subscription to notification pushes on this
// connection, replacing any previous subscription for the same delegation.
func (s *Server) subscribe(cs *connState, id core.DelegationID) {
	handler := func(ev subs.Event) {
		err := cs.send(wire.TNotify, 0, wire.NotifyPush{
			Delegation: ev.Delegation,
			Kind:       ev.Kind.String(),
			At:         ev.At,
		})
		if err != nil {
			// The push is lost (peer gone or write raced teardown); the
			// subscription dies with the connection, so log, don't retry.
			s.m.pushErrors.Inc()
			s.obs.Log().Warn("notify push failed",
				"delegation", ev.Delegation.Short(), "kind", ev.Kind.String(), "error", err)
			return
		}
		s.m.pushes.Inc()
		s.obs.Log().Debug("notify push",
			"delegation", ev.Delegation.Short(), "kind", ev.Kind.String())
	}
	cancel := s.w.Subscribe(id, handler)
	cs.subMu.Lock()
	defer cs.subMu.Unlock()
	if cs.cancels == nil { // connection already torn down
		cancel()
		return
	}
	if old, ok := cs.cancels[id]; ok {
		old()
	}
	cs.cancels[id] = cancel
}

// streamBuffer bounds queued changelog pushes per subscribe-all stream.
// The wallet handler enqueues without blocking: an overflow drops the push
// (and its seq with it), which the follower's gap detector converts into a
// resync — a slow replica self-heals at snapshot cost instead of stalling
// the primary's mutation path.
const streamBuffer = 1024

// subscribeAll wires the wallet's full changelog onto this connection: a
// wildcard wallet subscription enqueues every event (Published events carry
// the full bundle so followers need no read-back) and a writer goroutine
// drains the queue onto the wire. It answers with the wallet seq observed
// after the stream became live; every mutation with a greater seq will be
// delivered.
func (s *Server) subscribeAll(cs *connState) (any, []any, error) {
	ch := make(chan wire.NotifyPush, streamBuffer)
	quit := make(chan struct{})
	handler := func(ev subs.Event) {
		push := wire.NotifyPush{
			Delegation: ev.Delegation,
			Kind:       ev.Kind.String(),
			At:         ev.At,
			Seq:        ev.Seq,
		}
		if ev.Kind == subs.Published {
			// The handler runs under the wallet's mutation lock, so the
			// fetched bundle is exactly the state at this seq.
			if d, support, ok := s.rep.Get(ev.Delegation); ok {
				push.Bundle = &wire.SyncBundle{Delegation: d, Support: support}
			}
		}
		select {
		case ch <- push:
		default:
			// Not a send error: the peer is there but slow, and resyncs.
			s.m.overflows.Inc()
			s.obs.Log().Warn("changelog stream overflow; push dropped",
				"peer", cs.conn.Peer().ID().Short(),
				"delegation", ev.Delegation.Short(), "seq", ev.Seq)
		}
	}
	cancelSub := s.rep.SubscribeAll(handler)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancelSub()
			close(quit)
		})
	}

	cs.subMu.Lock()
	if cs.cancels == nil { // connection already torn down
		cs.subMu.Unlock()
		stop()
		return nil, nil, errors.New("connection closed")
	}
	old := cs.streamStop
	cs.streamStop = stop
	cs.subMu.Unlock()
	if old != nil {
		old()
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case push := <-ch:
				if err := cs.send(wire.TNotify, 0, push); err != nil {
					// The connection is gone; the stream dies with it and
					// teardown (or a replacement stream) calls stop.
					s.m.pushErrors.Inc()
					s.obs.Log().Debug("changelog push failed",
						"seq", push.Seq, "error", err)
					return
				}
				s.m.pushes.Inc()
			case <-quit:
				return
			}
		}
	}()

	// Read after the handler is registered: any mutation sequenced past
	// this point is guaranteed to reach the stream, so the client can
	// compare against its bootstrap snapshot for a gap-free handover.
	seq := s.w.Seq()
	return wire.SubscribeAllResp{Seq: seq}, []any{"seq", seq}, nil
}
