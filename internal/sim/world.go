// Package sim provides the simulation harness behind coalition-sim and the
// EXPERIMENTS.md tables it regenerates: the Experiments table, deterministic
// identities, in-memory networks of served wallets, synthetic delegation
// topologies with constant branching factors (§4.2.3), and the Table 3 /
// Figure 2 case study.
package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/discovery"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// Start is the fixed simulation epoch.
var Start = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// World bundles the substrate one simulation runs on: deterministic
// identities, a shared fake clock, a name directory, and a counted
// in-memory network. It owns everything an experiment builds on it —
// servers, clients, agents, pools, proxies, gateways — and Close is the
// one teardown.
type World struct {
	Clock *clock.Fake
	Net   *transport.MemNetwork
	Dir   *core.MemDirectory

	mu      sync.Mutex
	ids     map[string]*core.Identity
	closers []func()
}

// NewWorld creates an empty world at the fixed epoch.
func NewWorld() *World {
	return &World{
		Clock: clock.NewFake(Start),
		Net:   transport.NewMemNetwork(),
		Dir:   core.NewDirectory(),
		ids:   make(map[string]*core.Identity),
	}
}

// Close tears down everything the world owns, newest first, so a client
// hangs up before the server it dialed stops.
func (w *World) Close() {
	w.mu.Lock()
	closers := w.closers
	w.closers = nil
	w.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
}

// own registers close to run at Close.
func (w *World) own(close func()) {
	w.mu.Lock()
	w.closers = append(w.closers, close)
	w.mu.Unlock()
}

// Identity returns the deterministic identity for name, creating it on
// first use (seeded by the name's hash, so worlds are reproducible).
func (w *World) Identity(name string) *core.Identity {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id, ok := w.ids[name]; ok {
		return id
	}
	seed := sha256.Sum256([]byte("drbac-sim:" + name))
	id, err := core.IdentityFromSeed(name, seed[:])
	if err != nil {
		// IdentityFromSeed only fails on a wrong seed length, which is
		// impossible here.
		panic(fmt.Sprintf("sim identity %q: %v", name, err))
	}
	w.ids[name] = id
	w.Dir.Add(id.Entity())
	return id
}

// Wallet builds a wallet owned by the named identity on the shared clock.
func (w *World) Wallet(owner string) *wallet.Wallet {
	return wallet.New(wallet.Config{
		Owner:     w.Identity(owner),
		Clock:     w.Clock,
		Directory: w.Dir,
	})
}

// Serve builds a wallet owned by owner and serves it at addr.
func (w *World) Serve(addr, owner string) (*wallet.Wallet, error) {
	wal := w.Wallet(owner)
	if _, err := w.serve(wal, addr, owner, remote.Options{Obs: wal.Obs()}); err != nil {
		return nil, err
	}
	return wal, nil
}

// serve serves svc at addr on the world network, authenticating as owner.
func (w *World) serve(svc wallet.Service, addr, owner string, opts remote.Options) (*remote.Server, error) {
	ln, err := w.Net.Listen(addr, w.Identity(owner))
	if err != nil {
		return nil, err
	}
	s := remote.ServeOptions(svc, ln, opts)
	w.own(s.Close)
	return s, nil
}

// dial connects a client to addr through d.
func (w *World) dial(d transport.Dialer, addr string) (*remote.Client, error) {
	c, err := remote.Dial(context.Background(), d, addr)
	if err != nil {
		return nil, err
	}
	w.own(c.Close)
	return c, nil
}

// agent builds a discovery agent.
func (w *World) agent(cfg discovery.Config) *discovery.Agent {
	a := discovery.NewAgent(cfg)
	w.own(a.Close)
	return a
}

// peers builds a connection pool.
func (w *World) peers(cfg peer.Config) *peer.Manager {
	m := peer.NewManager(cfg)
	w.own(m.Close)
	return m
}

// Issue parses the paper syntax and signs with the named issuer, creating
// any entities the text mentions on first use.
func (w *World) Issue(text string) (*core.Delegation, error) {
	return w.IssueTagged(text, nil, nil)
}

// IssueTagged is Issue with subject/object discovery tags attached.
func (w *World) IssueTagged(text string, subjectTag, objectTag *core.DiscoveryTag) (*core.Delegation, error) {
	parsed, err := core.ParseDelegation(text, w.Dir)
	if err != nil {
		return nil, err
	}
	parsed.Template.SubjectTag = subjectTag
	parsed.Template.ObjectTag = objectTag
	issuer := w.identityByID(parsed.Issuer.ID())
	if issuer == nil {
		return nil, fmt.Errorf("sim: no identity for issuer of %q", text)
	}
	return core.Issue(issuer, parsed.Template, w.Clock.Now())
}

// publish issues each text and publishes it to wal.
func (w *World) publish(wal *wallet.Wallet, texts ...string) error {
	for _, text := range texts {
		d, err := w.Issue(text)
		if err != nil {
			return err
		}
		if err := wal.Publish(d); err != nil {
			return fmt.Errorf("publish %q: %w", text, err)
		}
	}
	return nil
}

// query parses the question whether subject holds object.
func (w *World) query(subject, object string) (wallet.Query, error) {
	s, err := w.Subject(subject)
	if err != nil {
		return wallet.Query{}, err
	}
	o, err := w.Role(object)
	return wallet.Query{Subject: s, Object: o}, err
}

// MustIssue is Issue for static texts in experiment setup.
func (w *World) MustIssue(text string) *core.Delegation {
	d, err := w.Issue(text)
	if err != nil {
		panic(fmt.Sprintf("sim issue %q: %v", text, err))
	}
	return d
}

// Role parses a role through the world directory.
func (w *World) Role(text string) (core.Role, error) {
	return core.ParseRole(text, w.Dir)
}

// Subject parses a subject through the world directory.
func (w *World) Subject(text string) (core.Subject, error) {
	return core.ParseSubject(text, w.Dir)
}

func (w *World) identityByID(id core.EntityID) *core.Identity {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, cand := range w.ids {
		if cand.ID() == id {
			return cand
		}
	}
	return nil
}

// Ensure declares entities ahead of parsing texts that reference them.
func (w *World) Ensure(names ...string) {
	for _, n := range names {
		w.Identity(n)
	}
}
