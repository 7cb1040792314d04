package wallet

import (
	"fmt"
	"sync"

	"drbac/internal/core"
	"drbac/internal/subs"
)

// MonitorEventKind classifies what a proof monitor observed.
type MonitorEventKind int

const (
	// MonitorReproved: a delegation in the proof changed, but the wallet
	// found an alternate proof; Proof carries the replacement (§4.2.2:
	// "the entity can request an alternate proof").
	MonitorReproved MonitorEventKind = iota + 1
	// MonitorInvalidated: the trust relationship no longer holds; access
	// should be discontinued.
	MonitorInvalidated
)

// String renders the kind.
func (k MonitorEventKind) String() string {
	switch k {
	case MonitorReproved:
		return "reproved"
	case MonitorInvalidated:
		return "invalidated"
	default:
		return "unknown"
	}
}

// MonitorEvent is delivered to the monitor's callback when the monitored
// trust relationship changes.
type MonitorEvent struct {
	Kind MonitorEventKind
	// Cause is the delegation status update that triggered re-evaluation.
	Cause subs.Event
	// Proof is the replacement proof for MonitorReproved events.
	Proof *core.Proof
}

// Monitor continuously tracks the validity of a proof over the lifetime of
// a prolonged interaction (§4.2.2). It registers a delegation subscription
// for every delegation in the proof, including support proofs; when any is
// invalidated it first attempts to find an alternate proof before reporting
// the relationship lost.
type Monitor struct {
	w        *Wallet
	query    Query
	callback func(MonitorEvent)

	mu     sync.Mutex
	proof  *core.Proof
	valid  bool
	closed bool
	unsubs []func()
}

// Monitor wraps a proof in a proof monitor (§4.1: "what a query returns is
// a proof wrapped in a proof monitor object"). The callback receives
// subsequent validity changes; it runs on the goroutine that triggered the
// status change and must not block.
func (w *Wallet) Monitor(q Query, callback func(MonitorEvent)) (*Monitor, error) {
	p, err := w.QueryDirect(q)
	if err != nil {
		return nil, err
	}
	return w.monitorProof(q, p, callback)
}

// MonitorProof wraps an already-obtained proof, validating it first.
func (w *Wallet) MonitorProof(q Query, p *core.Proof, callback func(MonitorEvent)) (*Monitor, error) {
	opts := w.validateOptions(q)
	opts.SigVerifier = w.sigv
	if err := p.Validate(opts); err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	return w.monitorProof(q, p, callback)
}

func (w *Wallet) monitorProof(q Query, p *core.Proof, callback func(MonitorEvent)) (*Monitor, error) {
	m := &Monitor{
		w:        w,
		query:    q,
		callback: callback,
		proof:    p,
		valid:    true,
	}
	m.mu.Lock()
	m.subscribeLocked()
	m.mu.Unlock()
	return m, nil
}

// Proof returns the currently monitored proof (nil after invalidation).
func (m *Monitor) Proof() *core.Proof {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid {
		return nil
	}
	return m.proof
}

// Valid reports whether the monitored trust relationship currently holds.
func (m *Monitor) Valid() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.valid
}

// Close cancels all delegation subscriptions. Idempotent.
func (m *Monitor) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.unsubscribeLocked()
}

// subscribeLocked registers a delegation subscription for every delegation
// in the current proof. Callers hold m.mu.
func (m *Monitor) subscribeLocked() {
	for _, d := range m.proof.Delegations() {
		id := d.ID()
		m.unsubs = append(m.unsubs, m.w.Subscribe(id, m.onDelegationEvent))
	}
}

func (m *Monitor) unsubscribeLocked() {
	for _, u := range m.unsubs {
		u()
	}
	m.unsubs = nil
}

// onDelegationEvent reacts to a status change of any delegation in the
// proof: renewals and (re-)publications are ignored — neither weakens the
// proof — anything else triggers re-proof.
func (m *Monitor) onDelegationEvent(ev subs.Event) {
	if ev.Kind == subs.Renewed || ev.Kind == subs.Published {
		return
	}
	m.mu.Lock()
	if m.closed || !m.valid {
		m.mu.Unlock()
		return
	}
	// The old proof is compromised; drop its subscriptions before
	// re-proving so a replacement starts clean.
	m.unsubscribeLocked()

	replacement, err := m.w.QueryDirect(m.query)
	if err == nil {
		m.proof = replacement
		m.subscribeLocked()
		cb := m.callback
		m.mu.Unlock()
		if cb != nil {
			cb(MonitorEvent{Kind: MonitorReproved, Cause: ev, Proof: replacement})
		}
		return
	}
	m.valid = false
	m.proof = nil
	cb := m.callback
	m.mu.Unlock()
	if cb != nil {
		cb(MonitorEvent{Kind: MonitorInvalidated, Cause: ev})
	}
}
