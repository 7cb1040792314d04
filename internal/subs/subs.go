// Package subs implements delegation subscriptions (§4.2.2): a per-
// delegation publish/subscribe registry that pushes status updates to
// interested parties the moment a credential changes, instead of requiring
// OCSP-style polling.
//
// The registry is purely local; internal/remote bridges subscriptions across
// wallets over the authenticated transport.
package subs

import (
	"sort"
	"sync"
	"time"

	"drbac/internal/core"
)

// EventKind classifies a delegation status change.
type EventKind int

const (
	// Revoked: the issuer withdrew the delegation.
	Revoked EventKind = iota + 1
	// Expired: the delegation's expiry passed.
	Expired
	// Renewed: the home wallet re-confirmed validity (TTL refresh).
	Renewed
	// Stale: a cached copy's TTL lapsed without re-confirmation from its
	// home wallet (§4.2.1); the credential must be re-fetched before reuse.
	Stale
	// Published: the wallet accepted a new delegation. Wildcard subscribers
	// use it to drop memoized "no proof" answers that the new credential may
	// now contradict (§6 coherent caching).
	Published
)

// kindNames is the wire spelling of each kind (NotifyPush.Kind, SPEC §5).
var kindNames = [...]string{
	Revoked:   "revoked",
	Expired:   "expired",
	Renewed:   "renewed",
	Stale:     "stale",
	Published: "published",
}

// String renders the kind.
func (k EventKind) String() string {
	if k < Revoked || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// ParseKind is the inverse of String; ok is false for a spelling no kind
// renders to (a newer peer's kind, or garbage).
func ParseKind(s string) (k EventKind, ok bool) {
	for k = Revoked; int(k) < len(kindNames); k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one delegation status update.
type Event struct {
	Delegation core.DelegationID
	Kind       EventKind
	At         time.Time
	// Seq is the publishing wallet's changelog sequence number for this
	// event: 1-based and gapless within one wallet process, assigned in the
	// order mutations were accepted. Replication (§9) rides on it — a
	// follower that sees seq jump knows it missed an event and must resync.
	// Zero marks events that did not originate from a sequenced mutation.
	Seq uint64
}

// Handler receives events. Handlers run outside the registry lock and may
// re-enter the registry (or its owning wallet).
type Handler func(Event)

// Registry is a concurrency-safe per-delegation subscription table. The
// zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu   sync.Mutex
	next int
	subs map[core.DelegationID]map[int]Handler
	// wild holds wildcard handlers, delivered every event regardless of
	// delegation. They run before per-delegation handlers so that cache
	// invalidation completes before subscribers react (e.g. a monitor that
	// re-proves must not be served a memoized answer the event just killed).
	wild map[int]Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		subs: make(map[core.DelegationID]map[int]Handler),
		wild: make(map[int]Handler),
	}
}

// Subscribe registers fn for updates to one delegation and returns a cancel
// function. Cancel is idempotent.
func (r *Registry) Subscribe(id core.DelegationID, fn Handler) (cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	r.next++
	m, ok := r.subs[id]
	if !ok {
		m = make(map[int]Handler)
		r.subs[id] = m
	}
	m[n] = fn
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if m, ok := r.subs[id]; ok {
				delete(m, n)
				if len(m) == 0 {
					delete(r.subs, id)
				}
			}
		})
	}
}

// SubscribeAll registers fn for every delegation's events and returns an
// idempotent cancel function. Wildcard handlers are invoked before
// per-delegation handlers on each Publish.
func (r *Registry) SubscribeAll(fn Handler) (cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	r.next++
	r.wild[n] = fn
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			delete(r.wild, n)
		})
	}
}

// Publish delivers an event to every wildcard subscriber and then to every
// subscriber of its delegation. Handlers are invoked synchronously, outside
// the registry lock, in registration order within each group.
func (r *Registry) Publish(ev Event) {
	r.mu.Lock()
	m := r.subs[ev.Delegation]
	handlers := make([]Handler, 0, len(r.wild)+len(m))
	handlers = appendOrdered(handlers, r.wild)
	handlers = appendOrdered(handlers, m)
	r.mu.Unlock()

	for _, fn := range handlers {
		fn(ev)
	}
}

// appendOrdered appends m's handlers in registration order (ascending key).
func appendOrdered(dst []Handler, m map[int]Handler) []Handler {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		dst = append(dst, m[k])
	}
	return dst
}

// Subscribers reports the number of active subscriptions for a delegation.
func (r *Registry) Subscribers(id core.DelegationID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs[id])
}

// Total reports the number of active subscriptions across all delegations.
func (r *Registry) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.subs {
		n += len(m)
	}
	return n
}
