// Package disco implements the application-facing slice of the paper's
// DisCo infrastructure (§1, "Project Context"): applications register
// protected resources whose access is regulated by dRBAC roles, authorize
// principals into *sessions* with modulated service levels, and rely on
// continuous monitoring to be told when an active session's authorization
// changes or disappears.
//
// A Guard owns a trusted wallet (and optionally a discovery agent for
// credentials spread across remote wallets). Authorize runs the full dRBAC
// pipeline — discovery, proof validation, attribute aggregation against the
// resource's base allocations, monitor wiring — and returns a live Session.
package disco

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"drbac/internal/core"
	"drbac/internal/discovery"
	"drbac/internal/wallet"
)

// Resource is a protected capability: access requires the given role, at
// service levels evaluated from the resource's base allocations, subject to
// minimum-level constraints.
type Resource struct {
	// Name identifies the resource to the application.
	Name string
	// Role is the dRBAC role access requires.
	Role core.Role
	// Bases are the resource's baseline allocations per valued attribute
	// (e.g. storage 50, hours 60). Attributes the authorizing chain
	// modulates are evaluated against these.
	Bases map[core.AttributeRef]float64
	// Minimums, if any, are the least acceptable evaluated levels;
	// principals whose chains cannot afford them are denied.
	Minimums map[core.AttributeRef]float64
}

// constraints derives the query constraints from the resource policy.
func (r Resource) constraints() []core.Constraint {
	var out []core.Constraint
	for attr, minimum := range r.Minimums {
		base, ok := r.Bases[attr]
		if !ok {
			base = inf()
		}
		out = append(out, core.Constraint{Attr: attr, Base: base, Minimum: minimum})
	}
	return out
}

// SessionEventKind classifies session lifecycle notifications.
type SessionEventKind int

const (
	// SessionReauthorized: the proof changed but an alternate authorizes
	// continued access; Levels may have changed.
	SessionReauthorized SessionEventKind = iota + 1
	// SessionTerminated: authorization was lost; the application must
	// discontinue access.
	SessionTerminated
)

// String renders the kind.
func (k SessionEventKind) String() string {
	switch k {
	case SessionReauthorized:
		return "reauthorized"
	case SessionTerminated:
		return "terminated"
	default:
		return "unknown"
	}
}

// SessionEvent notifies the application of a session change.
type SessionEvent struct {
	Kind    SessionEventKind
	Session *Session
	// Levels carries the re-evaluated service levels for reauthorizations.
	Levels map[core.AttributeRef]float64
}

// Config parameterizes a Guard.
type Config struct {
	// Wallet is the trusted local wallet. Required.
	Wallet *wallet.Wallet
	// Agent, if set, discovers missing credentials across wallet homes and
	// bridges their home-wallet subscriptions into the local wallet.
	Agent *discovery.Agent
}

// Guard regulates access to registered resources.
type Guard struct {
	cfg Config

	mu        sync.Mutex
	resources map[string]Resource
	sessions  map[int]*Session
	nextID    int
	closed    bool
}

// NewGuard builds a guard over a wallet.
func NewGuard(cfg Config) (*Guard, error) {
	if cfg.Wallet == nil {
		return nil, errors.New("disco: Wallet is required")
	}
	return &Guard{
		cfg:       cfg,
		resources: make(map[string]Resource),
		sessions:  make(map[int]*Session),
	}, nil
}

// Register adds (or replaces) a protected resource.
func (g *Guard) Register(r Resource) error {
	if r.Name == "" {
		return errors.New("disco: resource needs a name")
	}
	if err := r.Role.Validate(); err != nil {
		return fmt.Errorf("disco: resource %q: %w", r.Name, err)
	}
	for attr := range r.Minimums {
		if err := attr.Validate(); err != nil {
			return fmt.Errorf("disco: resource %q: %w", r.Name, err)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.resources[r.Name] = r
	return nil
}

// Resource looks a registration up.
func (g *Guard) Resource(name string) (Resource, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.resources[name]
	return r, ok
}

// ActiveSessions counts sessions that still hold authorization.
func (g *Guard) ActiveSessions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, s := range g.sessions {
		if s.Active() {
			n++
		}
	}
	return n
}

// Close terminates every session and stops their monitors.
func (g *Guard) Close() {
	g.mu.Lock()
	g.closed = true
	sessions := make([]*Session, 0, len(g.sessions))
	for _, s := range g.sessions {
		sessions = append(sessions, s)
	}
	g.sessions = make(map[int]*Session)
	g.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

// Authorize grants principal a session on the named resource if a valid
// proof exists (locally or via discovery), evaluating its service levels
// and monitoring it for the session's lifetime. onEvent receives
// reauthorizations and termination; it may be nil. Cancellation of ctx
// aborts the proof search (including any in-flight discovery); the granted
// session's lifetime is not bound to ctx.
func (g *Guard) Authorize(ctx context.Context, principal core.EntityID, resourceName string, onEvent func(SessionEvent)) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, errors.New("disco: guard closed")
	}
	r, ok := g.resources[resourceName]
	g.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("disco: unknown resource %q", resourceName)
	}

	query := wallet.Query{
		Ctx:         ctx,
		Subject:     core.SubjectEntity(principal),
		Object:      r.Role,
		Constraints: r.constraints(),
	}

	// Find the proof: local wallet first, discovery if wired.
	var (
		proof *core.Proof
		err   error
	)
	if g.cfg.Agent != nil {
		proof, err = g.cfg.Agent.Discover(ctx, query, discovery.Auto, nil)
	} else {
		proof, err = g.cfg.Wallet.QueryDirect(query)
	}
	if err != nil {
		return nil, fmt.Errorf("disco: authorize %s on %q: %w", principal.Short(), resourceName, err)
	}

	s := &Session{
		guard:     g,
		principal: principal,
		resource:  r,
		onEvent:   onEvent,
		active:    true,
	}
	if err := s.setLevels(proof); err != nil {
		return nil, err
	}

	mon, err := g.cfg.Wallet.MonitorProof(query, proof, s.onMonitorEvent)
	if err != nil {
		return nil, fmt.Errorf("disco: monitor: %w", err)
	}
	s.monitor = mon
	if g.cfg.Agent != nil {
		cancel, err := g.cfg.Agent.Bridge(ctx, proof)
		if err != nil {
			mon.Close()
			return nil, fmt.Errorf("disco: bridge subscriptions: %w", err)
		}
		s.bridgeCancel = cancel
	}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		s.Close()
		return nil, errors.New("disco: guard closed")
	}
	s.id = g.nextID
	g.nextID++
	g.sessions[s.id] = s
	g.mu.Unlock()
	return s, nil
}

// Session is one principal's monitored access to one resource.
type Session struct {
	guard     *Guard
	id        int
	principal core.EntityID
	resource  Resource
	onEvent   func(SessionEvent)

	mu           sync.Mutex
	active       bool
	levels       map[core.AttributeRef]float64
	monitor      *wallet.Monitor
	bridgeCancel func()
}

// Principal returns the authorized entity.
func (s *Session) Principal() core.EntityID { return s.principal }

// ResourceName returns the protected resource's name.
func (s *Session) ResourceName() string { return s.resource.Name }

// Active reports whether the session still holds authorization.
func (s *Session) Active() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Levels returns the evaluated service levels (a copy).
func (s *Session) Levels() map[core.AttributeRef]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[core.AttributeRef]float64, len(s.levels))
	for k, v := range s.levels {
		out[k] = v
	}
	return out
}

// Level returns one attribute's evaluated level (the base if untouched).
func (s *Session) Level(attr core.AttributeRef) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.levels[attr]; ok {
		return v
	}
	return s.resource.Bases[attr]
}

// Close ends the session and releases its monitor and bridge.
func (s *Session) Close() {
	s.mu.Lock()
	s.active = false
	mon := s.monitor
	s.monitor = nil
	bridge := s.bridgeCancel
	s.bridgeCancel = nil
	s.mu.Unlock()
	if mon != nil {
		mon.Close()
	}
	if bridge != nil {
		bridge()
	}
	s.guard.mu.Lock()
	delete(s.guard.sessions, s.id)
	s.guard.mu.Unlock()
}

// setLevels evaluates the proof's aggregate against the resource bases.
func (s *Session) setLevels(proof *core.Proof) error {
	ag, err := proof.Aggregate()
	if err != nil {
		return err
	}
	levels := make(map[core.AttributeRef]float64, len(s.resource.Bases))
	for attr, base := range s.resource.Bases {
		levels[attr] = ag.Value(attr, base)
	}
	// Attributes modulated by the chain but without a declared base
	// evaluate from +Inf (meaningful for min-collected caps).
	for _, attr := range ag.Attrs() {
		if _, ok := levels[attr]; !ok {
			levels[attr] = ag.Value(attr, inf())
		}
	}
	s.mu.Lock()
	s.levels = levels
	s.mu.Unlock()
	return nil
}

// onMonitorEvent reacts to the underlying proof monitor.
func (s *Session) onMonitorEvent(ev wallet.MonitorEvent) {
	switch ev.Kind {
	case wallet.MonitorReproved:
		if err := s.setLevels(ev.Proof); err != nil {
			s.terminate()
			return
		}
		s.mu.Lock()
		cb := s.onEvent
		s.mu.Unlock()
		if cb != nil {
			cb(SessionEvent{Kind: SessionReauthorized, Session: s, Levels: s.Levels()})
		}
	case wallet.MonitorInvalidated:
		s.terminate()
	}
}

func (s *Session) terminate() {
	s.mu.Lock()
	wasActive := s.active
	s.active = false
	cb := s.onEvent
	s.mu.Unlock()
	if wasActive && cb != nil {
		cb(SessionEvent{Kind: SessionTerminated, Session: s})
	}
}

func inf() float64 { return math.Inf(1) }
