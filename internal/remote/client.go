package remote

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/obs"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wire"
)

// DefaultCallTimeout bounds how long a client waits for a response.
const DefaultCallTimeout = 30 * time.Second

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("remote: client closed")

// codec frames every message in either direction, client and server alike.
var codec wire.Codec

// Client is a connection to a remote wallet. It multiplexes concurrent
// requests and dispatches subscription pushes to registered handlers.
type Client struct {
	conn transport.Conn
	// CallTimeout bounds each request; zero means DefaultCallTimeout.
	CallTimeout time.Duration
	// Obs, if set before the client is used, receives connection-failure
	// logs (a nil Obs discards them).
	Obs *obs.Obs

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*waiter
	notify  map[core.DelegationID]map[int]func(subs.Event)
	nextSub int
	closed  bool
	// stream, when set, receives every notification push raw (seq and
	// bundle included) before per-delegation handlers run — the follower
	// replica's changelog feed (§9). At most one per client.
	stream func(wire.NotifyPush)

	// pushQueue preserves notification order while keeping the read loop
	// responsive; a dedicated dispatcher goroutine drains it.
	pushQueue chan wire.NotifyPush
	done      chan struct{}
	wg        sync.WaitGroup

	// broken flips when the read loop exits for any reason; the connection
	// can never carry another call, so pool managers evict it.
	broken atomic.Bool
}

// Dial connects to a remote wallet at addr. Cancellation of ctx aborts the
// connect and handshake; it does not bound the lifetime of the returned
// client (each call carries its own context).
func Dial(ctx context.Context, d transport.Dialer, addr string) (*Client, error) {
	conn, err := d.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:      conn,
		pending:   make(map[uint64]*waiter),
		notify:    make(map[core.DelegationID]map[int]func(subs.Event)),
		pushQueue: make(chan wire.NotifyPush, 256),
		done:      make(chan struct{}),
	}
	c.wg.Add(2)
	go c.readLoop()
	go c.pushLoop()
	return c, nil
}

// Peer returns the authenticated identity of the remote wallet.
func (c *Client) Peer() core.Entity { return c.conn.Peer() }

// WireCodec names this connection's wire codec: always "binary", the only
// one a handshake completes on.
func (c *Client) WireCodec() string { return c.conn.Codec() }

// Healthy reports whether the connection can still carry calls: false once
// the read loop has exited (peer hung up, protocol error, or Close).
func (c *Client) Healthy() bool { return !c.broken.Load() }

// Close tears the connection down. Pending calls fail.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	_ = c.conn.Close()
	c.wg.Wait()
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	defer c.broken.Store(true)
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			c.failPending(err)
			return
		}
		env, err := codec.Decode(frame)
		if err != nil {
			c.failPending(err)
			return
		}
		if env.Type == wire.TNotify {
			var push wire.NotifyPush
			err := wire.DecodeBody(env, &push)
			// The decoded push owns no part of the frame; recycle it. The
			// replica changelog stream makes this the client's hottest
			// receive path.
			bufpool.Put(frame)
			if err != nil {
				// A malformed push is a server bug or wire corruption; the
				// subscription it belonged to silently goes quiet, so make
				// the drop observable instead of discarding it.
				c.Obs.Counter("drbac_remote_push_decode_errors_total").Inc()
				c.Obs.Log().Warn("remote push dropped: undecodable body",
					"peer", c.conn.Peer().ID().Short(), "error", err)
				continue
			}
			select {
			case c.pushQueue <- push:
			case <-c.done:
				return
			}
			continue
		}
		c.mu.Lock()
		w, ok := c.pending[env.ID]
		if ok {
			delete(c.pending, env.ID)
		}
		c.mu.Unlock()
		if ok {
			// The waiting call decodes the body and recycles the frame.
			w.ch <- reply{env: env, frame: frame}
		} else {
			// The call gave up (timeout, cancellation) before its answer,
			// or no call ever waited: older cluster members still push the
			// reserved cluster-hello (ID 0) on connect.
			bufpool.Put(frame)
		}
	}
}

func (c *Client) pushLoop() {
	defer c.wg.Done()
	for {
		select {
		case push := <-c.pushQueue:
			c.dispatchPush(push)
		case <-c.done:
			return
		}
	}
}

func (c *Client) dispatchPush(push wire.NotifyPush) {
	c.mu.Lock()
	stream := c.stream
	c.mu.Unlock()
	if stream != nil {
		stream(push)
	}
	kind, ok := subs.ParseKind(push.Kind)
	if !ok {
		return // a kind this build predates: ignored (SPEC §5)
	}
	ev := subs.Event{Delegation: push.Delegation, Kind: kind, At: push.At, Seq: push.Seq}
	c.mu.Lock()
	m := c.notify[push.Delegation]
	handlers := make([]func(subs.Event), 0, len(m))
	for _, fn := range m {
		handlers = append(handlers, fn)
	}
	c.mu.Unlock()
	for _, fn := range handlers {
		fn(ev)
	}
}

func (c *Client) failPending(err error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]*waiter)
	closed := c.closed
	// Under the lock that registers waiters: a call either made it into
	// pending above or sees the connection broken, never neither.
	c.broken.Store(true)
	c.mu.Unlock()
	for _, w := range pending {
		close(w.ch)
	}
	// Recv errors during an orderly Close are expected; anything else is a
	// dropped peer worth surfacing (the failed calls only report
	// ErrClientClosed, not the cause).
	if !closed {
		c.Obs.Log().Warn("remote connection lost",
			"peer", c.conn.Peer().ID().Short(), "pending", len(pending), "error", err)
	}
}

// reply is a response envelope together with the pooled frame its body
// still aliases; whoever receives it owns the frame.
type reply struct {
	env   wire.Envelope
	frame []byte
}

// waiter is one in-flight call's rendezvous: the channel the read loop
// delivers the reply on, and the timer bounding the wait. A call that got
// its reply recycles its waiter; one that gave up drops it, because the read
// loop may still be about to send on the channel.
type waiter struct {
	ch    chan reply
	timer *time.Timer
}

var waiterPool sync.Pool

func newWaiter(timeout time.Duration) *waiter {
	if w, _ := waiterPool.Get().(*waiter); w != nil {
		w.timer.Reset(timeout)
		return w
	}
	return &waiter{ch: make(chan reply, 1), timer: time.NewTimer(timeout)}
}

// release stops the timer — every exit from a call does, so no call leaves a
// pending timer behind — and, when the reply was received (the channel is
// then empty and unshared again), returns the waiter to the pool.
func (w *waiter) release(answered bool) {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
	if answered {
		waiterPool.Put(w)
	}
}

// roundTrip sends one request and waits for the matching response, which the
// caller owns (and must bufpool.Put the frame of). It returns early if ctx is
// canceled; CallTimeout still applies as an upper bound so a background
// context cannot hang a call forever. Error responses are decoded here and
// returned as errors.
func (c *Client) roundTrip(ctx context.Context, t wire.MsgType, body any) (reply, error) {
	if err := ctx.Err(); err != nil {
		return reply{}, fmt.Errorf("remote %s: %w", t, err)
	}
	timeout := c.CallTimeout
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	c.mu.Lock()
	if c.closed || c.broken.Load() {
		c.mu.Unlock()
		return reply{}, ErrClientClosed
	}
	c.nextID++
	id := c.nextID
	w := newWaiter(timeout)
	c.pending[id] = w
	c.mu.Unlock()

	abandon := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		w.release(false)
	}

	frame, err := codec.Encode(t, id, body)
	if err == nil {
		err = c.conn.Send(frame)
		// Send fully consumes the frame before returning, so the encode
		// buffer can go straight back to the pool either way.
		bufpool.Put(frame)
	}
	if err != nil {
		abandon()
		return reply{}, fmt.Errorf("remote %s: %w", t, err)
	}

	select {
	case r, ok := <-w.ch:
		w.release(ok)
		if !ok {
			return reply{}, fmt.Errorf("remote %s: %w", t, ErrClientClosed)
		}
		if r.env.Type != wire.TError {
			return r, nil
		}
		var er wire.ErrorResp
		err := wire.DecodeBody(r.env, &er)
		bufpool.Put(r.frame)
		if err != nil {
			return reply{}, err
		}
		if er.Redirect != nil {
			return reply{}, &RedirectError{Msg: fmt.Sprintf("remote %s: %s", t, er.Message), Redirect: *er.Redirect}
		}
		if er.NoProof {
			return reply{}, fmt.Errorf("remote %s: %s: %w", t, er.Message, core.ErrNoProof)
		}
		return reply{}, fmt.Errorf("remote %s: %s", t, er.Message)
	case <-w.timer.C:
		abandon()
		return reply{}, fmt.Errorf("remote %s: timeout after %v", t, timeout)
	case <-ctx.Done():
		abandon()
		return reply{}, fmt.Errorf("remote %s: %w", t, ctx.Err())
	case <-c.done:
		w.release(false)
		return reply{}, ErrClientClosed
	}
}

// call is roundTrip plus the decode: the response must be of the type the
// request's wire.Messages row declares, a non-nil out receives its body, and
// the reply frame goes back to the pool before call returns — DecodeBody
// copies everything it keeps, so nothing in out aliases it.
func (c *Client) call(ctx context.Context, t wire.MsgType, body, out any) error {
	r, err := c.roundTrip(ctx, t, body)
	if err != nil {
		return err
	}
	if msg := wire.Lookup(t); msg == nil || r.env.Type != msg.Reply {
		err = fmt.Errorf("remote %s: unexpected response %q", t, r.env.Type)
	} else if out != nil {
		err = wire.DecodeBody(r.env, out)
	}
	bufpool.Put(r.frame)
	return err
}

// ask is call for the requests whose answer is the response body itself.
func ask[Resp any](ctx context.Context, c *Client, t wire.MsgType, body any) (Resp, error) {
	var resp Resp
	err := c.call(ctx, t, body, &resp)
	return resp, err
}

// Ping round-trips a liveness probe.
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, wire.TPing, nil, nil)
}

// Publish stores a delegation (with support proofs) in the remote wallet.
// A positive ttl marks it a TTL-coherent cached copy there.
func (c *Client) Publish(ctx context.Context, d *core.Delegation, support []*core.Proof, ttl time.Duration) error {
	return c.call(ctx, wire.TPublish, wire.PublishReq{
		Delegation: d,
		Support:    support,
		TTLSeconds: int(ttl / time.Second),
	}, nil)
}

// PublishSharded is Publish stamped with the caller's shard map epoch: a
// cluster member refuses the request with a *RedirectError when the
// epoch is stale or it does not own the delegation's subject key.
func (c *Client) PublishSharded(ctx context.Context, d *core.Delegation, support []*core.Proof, epoch uint64) error {
	return c.call(ctx, wire.TPublish, wire.PublishReq{
		Delegation: d,
		Support:    support,
		ShardEpoch: epoch,
	}, nil)
}

// ShardMap fetches the peer's current shard map (serialized in
// resp.Map). Non-clustered peers answer with an error.
func (c *Client) ShardMap(ctx context.Context) (wire.ShardMapResp, error) {
	return ask[wire.ShardMapResp](ctx, c, wire.TShardMap, nil)
}

// QueryDirect asks the remote wallet for a proof subject ⇒ object. Like
// QuerySubject and QueryObject it carries the caller's trace position, when
// ctx holds one (obs.ContextWithSpan, obs.ContextWithTrace): the serving
// wallet logs the request (and runs its query) under the caller's trace and
// parents its serve span under the caller's span, so a multi-wallet
// discovery reads as one nested trace across every wallet it touched.
func (c *Client) QueryDirect(ctx context.Context, subject core.Subject, object core.Role, constraints []core.Constraint, direction graph.Direction) (*core.Proof, error) {
	tc := obs.TraceFromContext(ctx)
	resp, err := ask[wire.ProofResp](ctx, c, wire.TQueryDirect, wire.QueryReq{
		Subject:     subject,
		Object:      object,
		Constraints: constraints,
		Direction:   direction,
		TraceID:     tc.TraceID,
		SpanID:      tc.SpanID,
	})
	return resp.Proof, err
}

// QuerySubject asks for all sub-proofs subject ⇒ *.
func (c *Client) QuerySubject(ctx context.Context, subject core.Subject, constraints []core.Constraint) ([]*core.Proof, error) {
	tc := obs.TraceFromContext(ctx)
	resp, err := ask[wire.ProofsResp](ctx, c, wire.TQuerySubject, wire.QueryReq{Subject: subject, Constraints: constraints, TraceID: tc.TraceID, SpanID: tc.SpanID})
	return resp.Proofs, err
}

// QueryObject asks for all sub-proofs * ⇒ object.
func (c *Client) QueryObject(ctx context.Context, object core.Role, constraints []core.Constraint) ([]*core.Proof, error) {
	tc := obs.TraceFromContext(ctx)
	resp, err := ask[wire.ProofsResp](ctx, c, wire.TQueryObject, wire.QueryReq{Object: object, Constraints: constraints, TraceID: tc.TraceID, SpanID: tc.SpanID})
	return resp.Proofs, err
}

// Stats fetches the remote wallet's state summary and metrics snapshot —
// what `drbac stats` renders.
func (c *Client) Stats(ctx context.Context) (wire.StatsResp, error) {
	return ask[wire.StatsResp](ctx, c, wire.TStats, nil)
}

// Trace fetches the remote wallet's retained spans for one trace ID —
// what `drbac trace` merges across wallets into a waterfall.
func (c *Client) Trace(ctx context.Context, id string) (wire.TraceResp, error) {
	return ask[wire.TraceResp](ctx, c, wire.TTrace, wire.TraceReq{TraceID: id})
}

// Subscribe registers for push notifications about one delegation (§4.2.2)
// and returns a cancel function that also unsubscribes remotely.
func (c *Client) Subscribe(ctx context.Context, id core.DelegationID, fn func(subs.Event)) (cancel func(), err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	n := c.nextSub
	c.nextSub++
	m, ok := c.notify[id]
	if !ok {
		m = make(map[int]func(subs.Event))
		c.notify[id] = m
	}
	first := len(m) == 0
	m[n] = fn
	c.mu.Unlock()

	if first {
		if err := c.call(ctx, wire.TSubscribe, wire.SubscribeReq{Delegation: id}, nil); err != nil {
			c.mu.Lock()
			delete(c.notify[id], n)
			if len(c.notify[id]) == 0 {
				delete(c.notify, id)
			}
			c.mu.Unlock()
			return nil, err
		}
	}

	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			last := false
			if m, ok := c.notify[id]; ok {
				delete(m, n)
				if len(m) == 0 {
					delete(c.notify, id)
					last = true
				}
			}
			closed := c.closed
			c.mu.Unlock()
			if last && !closed {
				// The subscription's context may be long gone; the
				// unsubscribe is best-effort cleanup on its own clock.
				if err := c.call(context.Background(), wire.TUnsubscribe, wire.SubscribeReq{Delegation: id}, nil); err != nil {
					c.Obs.Log().Debug("remote unsubscribe failed", "delegation", id.Short(), "error", err)
				}
			}
		})
	}, nil
}

// Has reports whether the remote wallet stores the delegation — the
// registry-audit primitive (§6).
func (c *Client) Has(ctx context.Context, id core.DelegationID) (bool, error) {
	resp, err := ask[wire.HasResp](ctx, c, wire.THas, wire.HasReq{Delegation: id})
	return resp.Present, err
}

// Revoke withdraws a delegation at the remote wallet; the server authorizes
// against this client's authenticated identity.
func (c *Client) Revoke(ctx context.Context, id core.DelegationID) error {
	return c.call(ctx, wire.TRevoke, wire.RevokeReq{Delegation: id}, nil)
}

// ProveRole asks the remote wallet to prove its operating identity holds
// role, and validates both the proof and that its subject matches the
// transport-authenticated peer — the §4.2.1 home-wallet authorization check.
func (c *Client) ProveRole(ctx context.Context, role core.Role, at time.Time) (*core.Proof, error) {
	resp, err := ask[wire.ProofResp](ctx, c, wire.TProveRole, wire.ProveRoleReq{Role: role})
	if err != nil {
		return nil, err
	}
	p := resp.Proof
	if p == nil {
		return nil, fmt.Errorf("remote prove-role: empty proof")
	}
	if !p.Subject.IsEntity() || p.Subject.Entity != c.Peer().ID() {
		return nil, fmt.Errorf("remote prove-role: proof subject %s is not the authenticated peer %s",
			p.Subject, c.Peer())
	}
	if p.Object != role {
		return nil, fmt.Errorf("remote prove-role: proof object %s is not %s", p.Object, role)
	}
	if err := p.Validate(core.ValidateOptions{At: at}); err != nil {
		return nil, fmt.Errorf("remote prove-role: %w", err)
	}
	return p, nil
}

// Sync fetches the remote wallet's replicable state — every bundle and
// revocation — consistent at the returned Seq (§9). Followers bootstrap
// from it and resync from it after a stream gap.
func (c *Client) Sync(ctx context.Context) (wire.SyncResp, error) {
	return ask[wire.SyncResp](ctx, c, wire.TSync, nil)
}

// SubscribeAll registers fn to receive every status push from the remote
// wallet's changelog stream, raw (seq and bundle included), and returns the
// server's seq at stream registration: every mutation with a greater seq is
// guaranteed to be delivered to fn. A client carries at most one stream;
// re-subscribing replaces the handler. fn runs on the client's push
// dispatcher goroutine, before any per-delegation handlers for the same
// push, and may block (blocking backpressures the stream, and a stream
// backed up past the server's buffer drops pushes, forcing a resync).
func (c *Client) SubscribeAll(ctx context.Context, fn func(wire.NotifyPush)) (seq uint64, cancel func(), err error) {
	if fn == nil {
		return 0, nil, errors.New("remote subscribe-all: nil handler")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, ErrClientClosed
	}
	// Install before the request: pushes can race ahead of the response.
	c.stream = fn
	c.mu.Unlock()

	resp, err := ask[wire.SubscribeAllResp](ctx, c, wire.TSubscribeAll, nil)
	if err != nil {
		c.mu.Lock()
		c.stream = nil
		c.mu.Unlock()
		return 0, nil, err
	}
	var once sync.Once
	return resp.Seq, func() {
		once.Do(func() {
			c.mu.Lock()
			c.stream = nil
			c.mu.Unlock()
		})
	}, nil
}

// DHTFindNode asks the peer for its closest known contacts to target.
func (c *Client) DHTFindNode(ctx context.Context, req wire.DHTFindReq) (wire.DHTFindResp, error) {
	return ask[wire.DHTFindResp](ctx, c, wire.TDHTFindNode, req)
}

// DHTFindValue asks the peer for the provider record under req.Target,
// falling back to its closest contacts on a miss. The caller must verify
// any returned record (dht.Record verification) — the transport
// authenticates the serving node, not the record's publisher.
func (c *Client) DHTFindValue(ctx context.Context, req wire.DHTFindReq) (wire.DHTFindResp, error) {
	return ask[wire.DHTFindResp](ctx, c, wire.TDHTFindValue, req)
}

// DHTStore offers a signed provider record to the peer for storage. The
// peer verifies it against the embedded entity key; refusals come back as
// errors.
func (c *Client) DHTStore(ctx context.Context, req wire.DHTStoreReq) error {
	return c.call(ctx, wire.TDHTStore, req, nil)
}

// SplitAddrs parses a comma-separated address list ("primary,replica1,…")
// into its elements, trimming whitespace and dropping empties. The inverse
// convention lets one discovery-tag home, proxy upstream, or CLI -addr name
// a wallet and its replicas together.
func SplitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// JoinAddrs renders an address list back into the comma-separated form
// SplitAddrs parses — the shape a discovery-tag home expects.
func JoinAddrs(addrs []string) string {
	return strings.Join(addrs, ",")
}

// DialAny connects to the first reachable address in addrs, in order, and
// returns the client together with the address that answered. Read-path
// callers list the primary first and its replicas after it, so reads fail
// over when the primary is down; all addresses failing returns the last
// error.
func DialAny(ctx context.Context, d transport.Dialer, addrs []string) (*Client, string, error) {
	if len(addrs) == 0 {
		return nil, "", errors.New("remote: dial: no addresses")
	}
	var lastErr error
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		c, err := Dial(ctx, d, addr)
		if err == nil {
			return c, addr, nil
		}
		lastErr = err
	}
	return nil, "", fmt.Errorf("remote: no reachable address among %v: %w", addrs, lastErr)
}
