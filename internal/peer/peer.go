// Package peer manages the pool of remote-wallet connections a node keeps
// to its coalition partners. It replaces the ad-hoc map[string]*remote.Client
// caches that discovery and the caching proxy used to carry: connections are
// pooled by address, redialed lazily with capped exponential backoff and
// jitter, and guarded by a per-peer circuit breaker so a dead home wallet
// costs one fast-failed lookup instead of a fresh dial timeout on every
// round (§4.2.1's availability concern for coalition partners). The breaker
// is the only liveness verdict a pool acts on: it is fed by this pool's own
// dials and calls, never by what another node claims about a peer.
package peer

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"drbac/internal/clock"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/transport"
)

// ErrCircuitOpen reports a fast-failed Get: the peer's circuit is open and
// its backoff window has not elapsed, so no dial was attempted.
var ErrCircuitOpen = errors.New("peer: circuit open")

// State is the circuit-breaker state of one peer.
type State int

const (
	// StateClosed: the peer is believed healthy; Get dials (or reuses) freely.
	StateClosed State = iota
	// StateOpen: the peer passed the failure threshold; Get fast-fails until
	// the backoff window elapses.
	StateOpen
	// StateHalfOpen: the backoff window elapsed; the next Get is a probe.
	// Success closes the circuit, failure re-opens it with a longer window.
	StateHalfOpen
)

// String renders the state for logs and metric labels.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Health is a snapshot of one peer's standing in the pool.
type Health struct {
	// Addr is the pool key.
	Addr string
	// State is the circuit-breaker state.
	State State
	// ConsecutiveFailures counts dial/call failures since the last success.
	ConsecutiveFailures int
	// Connected reports whether a live connection is currently pooled.
	Connected bool
	// RetryAt is when an open circuit will admit a half-open probe
	// (zero when the circuit is closed).
	RetryAt time.Time
}

// The circuit breaker's shape: failureThreshold consecutive failures open
// the circuit; the retry delay starts at baseBackoff and doubles per failure
// up to maxBackoff.
const (
	failureThreshold = 3
	baseBackoff      = 100 * time.Millisecond
	maxBackoff       = 15 * time.Second
)

// Config configures a Manager; only Dialer is required.
type Config struct {
	// Dialer opens connections; required.
	Dialer transport.Dialer
	// CallTimeout is installed on every client the manager creates; zero
	// keeps remote.DefaultCallTimeout.
	CallTimeout time.Duration
	// Obs receives the pool's logs and metrics (nil discards both).
	Obs *obs.Obs
	// Clock is the time source; nil means the system clock.
	Clock clock.Clock
}

// Manager is a concurrency-safe pool of remote.Client connections keyed by
// address. Get returns the pooled connection when it is healthy, redials
// lazily when it is not, and fast-fails when the peer's circuit is open.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	peers map[string]*peerState

	// rr rotates GetAny's dial order across calls so load spreads over a
	// replica group instead of hammering its first address.
	rr atomic.Uint64

	mDials     *obs.Counter
	mDialFails *obs.Counter
	mFastFails *obs.Counter
	mEvictions *obs.Counter
	mOpens     *obs.Counter
	mLive      *obs.Gauge
}

// peerState is the per-address pool entry. Its own mutex single-flights
// dials to the address without holding the pool lock.
type peerState struct {
	mu       sync.Mutex
	client   *remote.Client
	failures int
	backoff  time.Duration
	next     time.Time // earliest instant a redial may be attempted
}

// NewManager builds a pool over cfg.Dialer.
func NewManager(cfg Config) *Manager {
	if cfg.Dialer == nil {
		panic("peer: Config.Dialer is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	m := &Manager{cfg: cfg, peers: make(map[string]*peerState)}
	o := cfg.Obs
	m.mDials = o.Counter("drbac_peer_dials_total")
	m.mDialFails = o.Counter("drbac_peer_dial_failures_total")
	m.mFastFails = o.Counter("drbac_peer_fastfails_total")
	m.mEvictions = o.Counter("drbac_peer_evictions_total")
	m.mOpens = o.Counter("drbac_peer_circuit_opens_total")
	if o.Registry() != nil {
		m.mLive = o.Registry().Gauge("drbac_peer_connections")
	}
	return m
}

func (m *Manager) peer(addr string) *peerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.peers[addr]
	if !ok {
		ps = &peerState{}
		m.peers[addr] = ps
	}
	return ps
}

// Get returns a healthy connection to addr, reusing the pooled one when its
// read loop is still alive, redialing otherwise. When the peer's circuit is
// open and its backoff window has not elapsed, Get fast-fails with
// ErrCircuitOpen without touching the network. The first Get after the
// window elapses is the half-open probe.
func (m *Manager) Get(ctx context.Context, addr string) (*remote.Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps := m.peer(addr)
	ps.mu.Lock()
	defer ps.mu.Unlock()

	if ps.client != nil {
		if ps.client.Healthy() {
			return ps.client, nil
		}
		// The read loop died since we last looked: evict and fall through
		// to the redial path. The broken client's Close is idempotent.
		ps.client.Close()
		ps.client = nil
		m.mEvictions.Inc()
		m.mLive.Add(-1)
		m.cfg.Obs.Log().Debug("peer connection evicted", "addr", addr)
	}

	now := m.cfg.Clock.Now()
	if ps.failures >= failureThreshold && now.Before(ps.next) {
		m.mFastFails.Inc()
		return nil, fmt.Errorf("%w: %s retries at %s", ErrCircuitOpen, addr, ps.next.Format(time.RFC3339))
	}

	m.mDials.Inc()
	// A (re)dial inside a traced operation shows up as its own span, so a
	// discovery waterfall explains time spent establishing connections.
	dsp := obs.SpanFromContext(ctx).StartChild("peer.dial", "addr", addr)
	c, err := remote.Dial(ctx, m.cfg.Dialer, addr)
	if err != nil {
		dsp.Fail(err)
		dsp.End("ok", false)
		m.mDialFails.Inc()
		m.recordFailureLocked(ps, addr, err)
		return nil, err
	}
	c.CallTimeout = m.cfg.CallTimeout
	c.Obs = m.cfg.Obs
	dsp.End("ok", true)
	if ps.failures >= failureThreshold {
		m.cfg.Obs.Log().Info("peer circuit closed", "addr", addr, "after_failures", ps.failures)
	}
	ps.client = c
	ps.failures = 0
	ps.backoff = 0
	ps.next = time.Time{}
	m.mLive.Add(1)
	return c, nil
}

// GetAny returns a healthy connection to any address in addrs — a wallet's
// replica group (§9) — together with the address chosen, so callers can
// report a later RPC failure against the right pool entry. Already-connected
// healthy peers are preferred (no dial at all); otherwise addresses are
// dialed in an order rotated per call, spreading load across the group.
// Every address failing returns the first error (usually the most
// informative: later addresses often fast-fail on open circuits).
func (m *Manager) GetAny(ctx context.Context, addrs []string) (*remote.Client, string, error) {
	if len(addrs) == 0 {
		return nil, "", errors.New("peer: GetAny: no addresses")
	}
	// Pass 1: reuse a live connection anywhere in the group.
	for _, addr := range addrs {
		if m.connected(addr) {
			if c, err := m.Get(ctx, addr); err == nil {
				return c, addr, nil
			}
		}
	}
	// Pass 2: dial, starting from a per-call rotation point.
	start := int(m.rr.Add(1) % uint64(len(addrs)))
	var firstErr error
	for i := range addrs {
		addr := addrs[(start+i)%len(addrs)]
		c, err := m.Get(ctx, addr)
		if err == nil {
			return c, addr, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, "", fmt.Errorf("peer: no reachable address among %v: %w", addrs, firstErr)
}

// connected reports whether a healthy pooled connection to addr exists right
// now, without dialing.
func (m *Manager) connected(addr string) bool {
	m.mu.Lock()
	ps := m.peers[addr]
	m.mu.Unlock()
	if ps == nil {
		return false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.client != nil && ps.client.Healthy()
}

// recordFailureLocked advances addr's failure accounting; ps.mu must be held.
func (m *Manager) recordFailureLocked(ps *peerState, addr string, err error) {
	ps.failures++
	if ps.backoff == 0 {
		ps.backoff = baseBackoff
	} else {
		ps.backoff *= 2
		if ps.backoff > maxBackoff {
			ps.backoff = maxBackoff
		}
	}
	ps.next = m.cfg.Clock.Now().Add(jitter(addr, ps.failures, ps.backoff))
	if ps.failures == failureThreshold {
		m.mOpens.Inc()
		m.cfg.Obs.Log().Warn("peer circuit opened",
			"addr", addr, "failures", ps.failures, "retry_at", ps.next, "error", err)
	} else {
		m.cfg.Obs.Log().Debug("peer failure",
			"addr", addr, "failures", ps.failures, "backoff", ps.backoff, "error", err)
	}
}

// jitter spreads d over [d/2, d) deterministically per (addr, attempt), so
// many nodes backing off from one dead wallet do not redial in lockstep and
// tests stay reproducible without a seeded RNG.
func jitter(addr string, attempt int, d time.Duration) time.Duration {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", addr, attempt)
	frac := float64(h.Sum64()%1000) / 1000 // [0, 1)
	return d/2 + time.Duration(frac*float64(d/2))
}

// ReportFailure tells the pool an RPC on c failed. Callers report every
// failed call; the pool keeps only the ones that say something about the
// peer: a report on a connection that is still healthy is ignored —
// application-level errors (a NoProof response, a rejected revocation)
// travel over a live connection and are not peer failures — and so is one
// about a client that is no longer the pooled connection for addr, so a
// stale report cannot poison the fresh connection.
func (m *Manager) ReportFailure(addr string, c *remote.Client) {
	if c == nil || c.Healthy() {
		return
	}
	ps := m.peer(addr)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.client != c {
		return
	}
	ps.client.Close()
	ps.client = nil
	m.mEvictions.Inc()
	m.mLive.Add(-1)
	m.recordFailureLocked(ps, addr, errors.New("reported by caller"))
}

// HealthOf snapshots one peer's standing. The zero Health (StateClosed, no
// failures) is returned for an address the pool has never seen.
func (m *Manager) HealthOf(addr string) Health {
	m.mu.Lock()
	ps := m.peers[addr]
	m.mu.Unlock()
	h := Health{Addr: addr, State: StateClosed}
	if ps == nil {
		return h
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	h.ConsecutiveFailures = ps.failures
	h.Connected = ps.client != nil && ps.client.Healthy()
	if ps.failures >= failureThreshold {
		h.State, h.RetryAt = StateHalfOpen, ps.next
		if m.cfg.Clock.Now().Before(ps.next) {
			h.State = StateOpen
		}
	}
	return h
}

// Health snapshots every peer the pool has seen, keyed by address.
func (m *Manager) Health() map[string]Health {
	m.mu.Lock()
	addrs := make([]string, 0, len(m.peers))
	for a := range m.peers {
		addrs = append(addrs, a)
	}
	m.mu.Unlock()
	out := make(map[string]Health, len(addrs))
	for _, a := range addrs {
		out[a] = m.HealthOf(a)
	}
	return out
}

// Close tears down every pooled connection. The manager remains usable;
// subsequent Gets redial.
func (m *Manager) Close() {
	m.mu.Lock()
	peers := make([]*peerState, 0, len(m.peers))
	for _, ps := range m.peers {
		peers = append(peers, ps)
	}
	m.mu.Unlock()
	for _, ps := range peers {
		ps.mu.Lock()
		if ps.client != nil {
			ps.client.Close()
			ps.client = nil
			m.mLive.Add(-1)
		}
		ps.mu.Unlock()
	}
}
