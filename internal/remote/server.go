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
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
	"drbac/internal/graph"
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
	serves [wire.TierCluster + 1]bool
	role   string
	guard  ClusterGuard
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
// when w is wallet.Replicable, and the cluster tier when opts carries its
// guard.
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
		directFallback: opts.DirectFallback,
		baseCtx:        ctx,
		cancelAll:      cancel,
		conns:          make(map[transport.Conn]bool),
		serves: [...]bool{
			wire.TierWallet:      true,
			wire.TierReplication: rep != nil,
			wire.TierCluster:     opts.Cluster != nil,
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
	// cancelStream ends this connection's changelog stream (subscribe-all),
	// when one is active. Guarded by subMu.
	cancelStream func()
	// pushes is the connection's push queue and stop ends its writer; both
	// are made at the first subscription, so a query-only connection has
	// neither. Guarded by subMu.
	pushes chan wire.NotifyPush
	stop   chan struct{}
	// closing flips once, when the push path gives the connection up: a full
	// queue or a failed send. Whichever flips it is the one counted.
	closing atomic.Bool
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
		if cs.cancelStream != nil {
			cs.cancelStream()
		}
		if cs.stop != nil {
			close(cs.stop)
		}
		cs.subMu.Unlock()
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
// and latency. The record is typed attributes, built only when the logger
// takes Info records.
func (s *Server) dispatch(cs *connState, env wire.Envelope) {
	start := time.Now()
	var rec []slog.Attr
	if s.obs != nil && s.obs.Log().Enabled(context.Background(), slog.LevelInfo) {
		rec = make([]slog.Attr, 0, auditCap)
		rec = append(rec, slog.String("type", string(env.Type)), slog.String("peer", cs.peer))
	}
	rec, err := s.handle(cs, env, rec)
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
	if rec != nil {
		rec = append(rec, slog.Float64("duration_ms", float64(time.Since(start).Microseconds())/1000))
		if err != nil {
			rec = append(rec, slog.String("error", err.Error()))
		}
		s.obs.Log().LogAttrs(context.Background(), slog.LevelInfo, "request", rec...)
	}
}

// auditCap sizes an audit record for its longest kind: type, peer, a
// query's trace, subject, object, found and results, then duration and
// error.
const auditCap = 10

// note adds a request's detail to its audit record; with the record off
// (rec nil) it keeps nothing.
func note(rec []slog.Attr, attrs ...slog.Attr) []slog.Attr {
	if rec == nil {
		return nil
	}
	return append(rec, attrs...)
}

// ends renders the subject and object a query names (the ones asked for; an
// end not asked for is ""), and adds them with its trace ID to the audit
// record, only when something reads them: the audit record or the span a
// traced request opens. No subject or role renders as "".
func (s *Server) ends(req *wire.QueryReq, rec []slog.Attr, subject, object bool) (subj, obj string, _ []slog.Attr) {
	if rec == nil && !s.traced(req) {
		return "", "", nil
	}
	rec = note(rec, slog.String("trace", req.TraceID))
	if subject {
		subj = req.Subject.String()
		rec = note(rec, slog.String("subject", subj))
	}
	if object {
		obj = req.Object.String()
		rec = note(rec, slog.String("object", obj))
	}
	return subj, obj, rec
}

// traced reports whether a query opens a server span.
func (s *Server) traced(req *wire.QueryReq) bool { return s.obs != nil && req.TraceID != "" }

// serveSpan opens the server-side span for a traced query: a local root
// continuing the caller's trace, parented under the caller's span ID so a
// merged cross-wallet trace nests this hop below the query that caused it,
// with the rendered ends the query names (from ends) as its attributes. The
// returned context carries the span down into the wallet (and the proxy
// fallback). Untraced requests get a nil span and the base context.
func (s *Server) serveSpan(req *wire.QueryReq, name, subj, obj string) (context.Context, *obs.Span) {
	if !s.traced(req) {
		return s.baseCtx, nil
	}
	var sp *obs.Span
	switch {
	case obj == "":
		sp = s.obs.StartServerSpan(req.TraceID, req.SpanID, name, "subject", subj)
	case subj == "":
		sp = s.obs.StartServerSpan(req.TraceID, req.SpanID, name, "object", obj)
	default:
		sp = s.obs.StartServerSpan(req.TraceID, req.SpanID, name, "subject", subj, "object", obj)
	}
	return obs.ContextWithSpan(s.baseCtx, sp), sp
}

// handle serves one request: the wire.Messages row says whether the type is
// a request at all, who may be sent it and which type its success reply goes
// out under, the handler set says who serves it. It is the one place a
// request is refused for what this server is; handlers only refuse what a
// request asks. It returns the audit record rec with the request's detail
// added; a returned error is sent by dispatch.
func (s *Server) handle(cs *connState, env wire.Envelope, rec []slog.Attr) ([]slog.Attr, error) {
	msg, h := wire.Lookup(env.Type), handlers[env.Type]
	switch {
	case msg == nil || msg.Reply == "" || h == nil:
		// Not in the protocol, or a reply, push or reserved type.
		return rec, fmt.Errorf("unknown request type %q", env.Type)
	case !s.serves[msg.Tier]:
		return rec, fmt.Errorf("%s: wallet does not serve %s requests", env.Type, msg.Tier)
	case msg.Mutates && s.readOnly:
		return rec, fmt.Errorf("%s: %w", env.Type, ErrReadOnly)
	}
	reply, rec, err := h(s, cs, msg, env, rec)
	if err != nil {
		return rec, err
	}
	return rec, cs.send(msg.Reply, env.ID, reply)
}

// handler serves one request type: it returns the success reply's body
// (nil for none) and the audit record rec with the request's detail added
// (note); rec is nil when the record is off.
type handler func(s *Server, cs *connState, msg *wire.Message, env wire.Envelope, rec []slog.Attr) (reply any, _ []slog.Attr, err error)

// on adapts a handler that takes a decoded body — the one place request
// bodies are decoded.
func on[Req any](serve func(*Server, *connState, *Req, []slog.Attr) (any, []slog.Attr, error)) handler {
	return func(s *Server, cs *connState, msg *wire.Message, env wire.Envelope, rec []slog.Attr) (any, []slog.Attr, error) {
		var req Req
		if len(env.Body) > 0 || !msg.BodyOptional {
			if err := wire.DecodeBody(env, &req); err != nil {
				return nil, rec, err
			}
		}
		return serve(s, cs, &req, rec)
	}
}

// bare adapts a handler for a request that carries no body.
func bare(serve func(*Server, *connState, []slog.Attr) (any, []slog.Attr, error)) handler {
	return func(s *Server, cs *connState, _ *wire.Message, _ wire.Envelope, rec []slog.Attr) (any, []slog.Attr, error) {
		return serve(s, cs, rec)
	}
}

// handlers is the server's whole dispatch: one entry per request row of
// wire.Messages (TestHandlersCoverRequestRows holds the two together).
var handlers = map[wire.MsgType]handler{
	wire.TPing:         bare(func(_ *Server, _ *connState, rec []slog.Attr) (any, []slog.Attr, error) { return nil, rec, nil }),
	wire.TPublish:      on((*Server).publish),
	wire.TQueryDirect:  on((*Server).queryDirect),
	wire.TQuerySubject: on(queryAll(false)),
	wire.TQueryObject:  on(queryAll(true)),
	wire.TQueryExpand:  on((*Server).queryExpand),
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
}

func (s *Server) publish(_ *connState, req *wire.PublishReq, rec []slog.Attr) (any, []slog.Attr, error) {
	// A malformed request is refused before the guard or the wallet sees
	// it: a negative TTL is neither a cached copy nor a durable publish.
	d := req.Delegation
	if d == nil {
		return nil, rec, errors.New("publish: malformed request: no delegation")
	}
	rec = note(rec, slog.String("delegation", d.ID().Short()), slog.Int("ttl_s", req.TTLSeconds))
	if req.TTLSeconds < 0 {
		return nil, rec, fmt.Errorf("publish: malformed request: negative ttlSeconds %d", req.TTLSeconds)
	}
	// TTL-cached copies are a local caching concern (§4.2.1), not
	// partitioned state, so the shard guard does not see them.
	if req.TTLSeconds > 0 {
		return nil, rec, s.w.InsertCached(d, req.Support, time.Duration(req.TTLSeconds)*time.Second)
	}
	// Shard guard: durable publishes must land on the owning shard under a
	// fresh epoch.
	if s.serves[wire.TierCluster] {
		if rd := s.guard.Check(req.ShardEpoch, &d.Subject); rd != nil {
			return nil, rec, &RedirectError{Msg: "publish refused: wrong shard or stale epoch", Redirect: *rd}
		}
	}
	return nil, rec, s.w.Publish(d, req.Support...)
}

func (s *Server) queryDirect(_ *connState, req *wire.QueryReq, rec []slog.Attr) (any, []slog.Attr, error) {
	subj, obj, rec := s.ends(req, rec, true, true)
	ctx, sp := s.serveSpan(req, "serve:query-direct", subj, obj)
	q := wallet.Query{
		Ctx:         ctx,
		Subject:     req.Subject,
		Object:      req.Object,
		Constraints: req.Constraints,
		Direction:   req.Direction,
		TraceID:     req.TraceID,
	}
	p, err := s.direct(q)
	if err != nil && !errors.Is(err, core.ErrNoProof) {
		sp.Fail(err)
	}
	sp.End("found", err == nil)
	return wire.ProofResp{Proof: p}, note(rec, slog.Bool("found", err == nil)), err
}

// direct answers a direct query as query-direct and query-expand serve it:
// from the wallet, then, on a miss, from the pull-through fallback.
func (s *Server) direct(q wallet.Query) (*core.Proof, error) {
	p, err := s.w.QueryDirect(q)
	if err != nil && errors.Is(err, core.ErrNoProof) && s.directFallback != nil {
		p, err = s.directFallback(q.Ctx, q)
	}
	return p, err
}

// queryExpand serves query-expand: the direct query exactly as query-direct
// serves it, and on a miss the enumeration from the end the request's
// direction names, in one proofs reply. A hit is that one proof; a miss with
// nothing to enumerate is an empty list, not an error.
func (s *Server) queryExpand(_ *connState, req *wire.QueryReq, rec []slog.Attr) (any, []slog.Attr, error) {
	subj, obj, rec := s.ends(req, rec, true, true)
	if req.Direction != graph.Forward && req.Direction != graph.Reverse {
		return nil, rec, fmt.Errorf("query-expand: malformed request: direction %d is neither forward (%d) nor reverse (%d)",
			req.Direction, graph.Forward, graph.Reverse)
	}
	ctx, sp := s.serveSpan(req, "serve:query-expand", subj, obj)
	p, err := s.direct(wallet.Query{
		Ctx:         ctx,
		Subject:     req.Subject,
		Object:      req.Object,
		Constraints: req.Constraints,
		TraceID:     req.TraceID,
	})
	found := err == nil
	var proofs []*core.Proof
	switch {
	case found:
		proofs = []*core.Proof{p}
	case !errors.Is(err, core.ErrNoProof):
		sp.Fail(err)
		sp.End("found", false)
		return nil, note(rec, slog.Bool("found", false)), err
	case req.Direction == graph.Reverse:
		proofs = s.w.QueryObject(req.Object, req.Constraints)
	default:
		proofs = s.w.QuerySubject(req.Subject, req.Constraints)
	}
	sp.End("found", found, "results", len(proofs))
	return wire.ProofsResp{Proofs: proofs}, note(rec, slog.Bool("found", found), slog.Int("results", len(proofs))), nil
}

// queryAll serves query-subject and, with object set, query-object: the
// same search from the other end of the chain.
func queryAll(object bool) func(*Server, *connState, *wire.QueryReq, []slog.Attr) (any, []slog.Attr, error) {
	return func(s *Server, _ *connState, req *wire.QueryReq, rec []slog.Attr) (any, []slog.Attr, error) {
		subj, obj, rec := s.ends(req, rec, !object, object)
		var proofs []*core.Proof
		if object {
			_, sp := s.serveSpan(req, "serve:query-object", subj, obj)
			proofs = s.w.QueryObject(req.Object, req.Constraints)
			sp.End("results", len(proofs))
		} else {
			_, sp := s.serveSpan(req, "serve:query-subject", subj, obj)
			proofs = s.w.QuerySubject(req.Subject, req.Constraints)
			sp.End("results", len(proofs))
		}
		return wire.ProofsResp{Proofs: proofs}, note(rec, slog.Int("results", len(proofs))), nil
	}
}

func (s *Server) trace(_ *connState, req *wire.TraceReq, rec []slog.Attr) (any, []slog.Attr, error) {
	spans := s.obs.TraceCollector().Spans(req.TraceID)
	rec = note(rec, slog.String("trace", req.TraceID), slog.Int("spans", len(spans)))
	return wire.TraceResp{Found: len(spans) > 0, Spans: spans}, rec, nil
}

// subscribeOne wires a wallet subscription to notification pushes on this
// connection, replacing any previous subscription for the same delegation.
// It registers the subscription first and asks about revocation after: a
// revocation either finds the subscription registered and is pushed on it,
// or is already recorded and refuses the subscribe with an error wrapping
// core.ErrNoProof. So a subscriber that fetched the delegation before its
// revocation misses neither.
func (s *Server) subscribeOne(cs *connState, req *wire.SubscribeReq, rec []slog.Attr) (any, []slog.Attr, error) {
	id := req.Delegation
	rec = note(rec, slog.String("delegation", id.Short()))
	q := s.queue(cs)
	cancel := s.w.Subscribe(id, func(ev subs.Event) {
		s.push(cs, q, wire.NotifyPush{Delegation: ev.Delegation, Kind: ev.Kind.String(), At: ev.At})
	})
	if s.w.IsRevoked(id) {
		cancel()
		return nil, rec, fmt.Errorf("delegation %s revoked: %w", id.Short(), core.ErrNoProof)
	}
	cs.subMu.Lock()
	defer cs.subMu.Unlock()
	if old, ok := cs.cancels[id]; ok {
		old()
	}
	cs.cancels[id] = cancel
	return nil, rec, nil
}

func (s *Server) unsubscribe(cs *connState, req *wire.SubscribeReq, rec []slog.Attr) (any, []slog.Attr, error) {
	cs.subMu.Lock()
	if cancel, ok := cs.cancels[req.Delegation]; ok {
		cancel()
		delete(cs.cancels, req.Delegation)
	}
	cs.subMu.Unlock()
	return nil, note(rec, slog.String("delegation", req.Delegation.Short())), nil
}

func (s *Server) revoke(cs *connState, req *wire.RevokeReq, rec []slog.Attr) (any, []slog.Attr, error) {
	rec = note(rec, slog.String("delegation", req.Delegation.Short()))
	if s.serves[wire.TierCluster] {
		if rd := s.guard.Check(req.ShardEpoch, nil); rd != nil {
			return nil, rec, &RedirectError{Msg: "revoke refused: stale shard map epoch", Redirect: *rd}
		}
	}
	// Authorization: the authenticated peer must be the issuer.
	return nil, rec, s.w.Revoke(req.Delegation, cs.conn.Peer().ID())
}

func (s *Server) has(_ *connState, req *wire.HasReq, rec []slog.Attr) (any, []slog.Attr, error) {
	present := s.w.Contains(req.Delegation)
	return wire.HasResp{Present: present}, note(rec, slog.String("delegation", req.Delegation.Short()), slog.Bool("present", present)), nil
}

func (s *Server) proveRole(_ *connState, req *wire.ProveRoleReq, rec []slog.Attr) (any, []slog.Attr, error) {
	if rec != nil {
		rec = append(rec, slog.String("role", req.Role.String()))
	}
	owner := s.w.Owner()
	if owner == nil {
		return nil, rec, fmt.Errorf("wallet has no operating identity")
	}
	p, err := s.w.QueryDirect(wallet.Query{
		Subject: core.SubjectEntity(owner.ID()),
		Object:  req.Role,
	})
	return wire.ProofResp{Proof: p}, rec, err
}

func (s *Server) stats(_ *connState, rec []slog.Attr) (any, []slog.Attr, error) {
	ws := wire.StatsSnapshot()
	ws.ConnCodec = wire.CodecBinary
	return wire.StatsResp{
		Role:    s.role,
		Seq:     s.w.Seq(),
		Metrics: s.obs.Registry().Snapshot(),
		Wire:    &ws,
	}, rec, nil
}

func (s *Server) shardMap(_ *connState, rec []slog.Attr) (any, []slog.Attr, error) {
	resp, err := s.guard.MapResp()
	return resp, note(rec, slog.Uint64("epoch", resp.Epoch), slog.Int("shard", resp.Shard)), err
}

func (s *Server) sync(_ *connState, rec []slog.Attr) (any, []slog.Attr, error) {
	snap := s.rep.Snapshot()
	resp := wire.SyncResp{Seq: snap.Seq, Revoked: snap.Revoked}
	resp.Bundles = make([]wire.SyncBundle, 0, len(snap.Bundles))
	for _, b := range snap.Bundles {
		resp.Bundles = append(resp.Bundles, wire.SyncBundle{Delegation: b.Delegation, Support: b.Support})
	}
	return resp, note(rec, slog.Uint64("seq", snap.Seq), slog.Int("bundles", len(resp.Bundles)), slog.Int("revoked", len(resp.Revoked))), nil
}

// pushQueueLen bounds a connection's queued pushes: a burst of that many
// mutations, as deep as a follower's own backlog, passes a peer that keeps
// up on average. A peer that falls further behind is disconnected (push).
const pushQueueLen = 1024

// queue returns cs's push queue, making it and starting its writer at the
// connection's first subscription (teardown waits for in-flight requests).
func (s *Server) queue(cs *connState) chan<- wire.NotifyPush {
	cs.subMu.Lock()
	defer cs.subMu.Unlock()
	if cs.pushes == nil {
		cs.pushes = make(chan wire.NotifyPush, pushQueueLen)
		cs.stop = make(chan struct{})
		s.wg.Add(1)
		go s.writePushes(cs, cs.pushes, cs.stop)
	}
	return cs.pushes
}

// push hands p to the connection's writer without waiting: it runs in a
// wallet handler, under the wallet's mutation lock (on a gateway, on a shard
// client's push dispatcher), which a slow peer must not hold. A full queue closes the connection — a follower reconnects and
// re-bootstraps, a relying party's client fails its calls and redials —
// because a dropped push is a silent gap to a per-delegation subscriber.
func (s *Server) push(cs *connState, q chan<- wire.NotifyPush, p wire.NotifyPush) {
	select {
	case q <- p:
		return
	default:
	}
	if !cs.closing.CompareAndSwap(false, true) {
		return // already given up; teardown follows
	}
	s.m.overflows.Inc()
	s.obs.Log().Warn("push queue overflow; closing connection",
		"peer", cs.peer, "delegation", p.Delegation.Short(), "kind", p.Kind, "seq", p.Seq)
	_ = cs.conn.Close()
}

// writePushes is the connection's one push writer: it sends the queue in
// order until the connection is torn down or a send fails.
func (s *Server) writePushes(cs *connState, q <-chan wire.NotifyPush, stop <-chan struct{}) {
	defer s.wg.Done()
	for {
		select {
		case p := <-q:
			if err := cs.send(wire.TNotify, 0, p); err != nil {
				// A send that fails after an overflow closed the connection
				// is the overflow's doing, already counted.
				if cs.closing.CompareAndSwap(false, true) {
					s.m.pushErrors.Inc()
					s.obs.Log().Warn("push failed; closing connection", "peer", cs.peer,
						"delegation", p.Delegation.Short(), "kind", p.Kind, "error", err)
					_ = cs.conn.Close()
				}
				return
			}
			s.m.pushes.Inc()
		case <-stop:
			return
		}
	}
}

// subscribeAll wires the wallet's full changelog onto this connection's push
// queue: a wildcard wallet subscription pushes every event (Published events
// carry the full bundle so followers need no read-back). It answers with the
// wallet seq observed after the stream became live; every mutation with a
// greater seq will be delivered.
func (s *Server) subscribeAll(cs *connState, rec []slog.Attr) (any, []slog.Attr, error) {
	q := s.queue(cs)
	cancel := s.rep.SubscribeAll(func(ev subs.Event) {
		p := wire.NotifyPush{Delegation: ev.Delegation, Kind: ev.Kind.String(), At: ev.At, Seq: ev.Seq}
		if ev.Kind == subs.Published {
			// The handler runs under the wallet's mutation lock, so the
			// fetched bundle is exactly the state at this seq.
			if d, support, ok := s.rep.Get(ev.Delegation); ok {
				p.Bundle = &wire.SyncBundle{Delegation: d, Support: support}
			}
		}
		s.push(cs, q, p)
	})

	cs.subMu.Lock()
	if cs.cancelStream != nil {
		cs.cancelStream()
	}
	cs.cancelStream = cancel
	cs.subMu.Unlock()

	// Read after the handler is registered: any mutation sequenced past
	// this point is guaranteed to reach the stream, so the client can
	// compare against its bootstrap snapshot for a gap-free handover.
	seq := s.w.Seq()
	return wire.SubscribeAllResp{Seq: seq}, note(rec, slog.Uint64("seq", seq)), nil
}
