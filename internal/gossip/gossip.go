// Package gossip runs a SWIM-style membership layer over the
// authenticated transport: each protocol period a node probes one member
// directly (gossip-ping) and, on silence, asks a few others to probe it on
// its behalf (gossip-ping-req) — the indirect probe that distinguishes "it
// is dead" from "my link to it is bad". Verdicts move members through
// alive → suspect → dead with incarnation numbers: only the member itself
// refutes a suspicion (by bumping its incarnation), so one slow node
// cannot flap the whole coalition's view. Membership events piggyback on
// the probes themselves with bounded retransmission — no broadcast storm.
//
// The payoff for dRBAC is cluster-wide breaker priming: a confirmed-dead
// wallet is fed to every pool's SetRemoteDown through OnVerdict, so a
// gateway stops dialing a dead shard member before its own circuit
// breaker has ever seen a failure, and chain discovery skips dead homes
// coalition-wide within a few protocol periods.
package gossip

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/wire"
)

// Status is a member's SWIM state.
type Status int

const (
	Alive Status = iota
	Suspect
	Dead
)

// String renders the status for wire updates and logs.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

func parseStatus(s string) (Status, bool) {
	switch s {
	case "alive":
		return Alive, true
	case "suspect":
		return Suspect, true
	case "dead":
		return Dead, true
	default:
		return 0, false
	}
}

// Protocol constants tuned for wallet coalitions: liveness within a few
// seconds without meaningful idle traffic.
const (
	// probeInterval is the protocol period.
	probeInterval = 1 * time.Second
	// probeTimeout bounds one probe round (direct + indirect).
	probeTimeout = 2 * time.Second
	// indirectProbes is how many members relay a ping-req on silence.
	indirectProbes = 3
	// DefaultSuspectTimeout is Config.SuspectTimeout's default.
	DefaultSuspectTimeout = 5 * time.Second
	// retransmit is how many probe messages each membership update
	// piggybacks on before it is dropped from the queue.
	retransmit   = 6
	maxPiggyback = 12
)

// Config assembles a gossip node.
type Config struct {
	// SelfAddr is this wallet's listen address — its membership identity.
	// Required.
	SelfAddr string
	// Peers supplies outbound connections for probes. Give gossip its OWN
	// pool, not one fed by OnVerdict: probes to a down-marked member must
	// still go out or recovery would never be observed. Required.
	Peers *peer.Manager
	// Clock is the time source; nil means the system clock.
	Clock clock.Clock
	// Obs receives logs and metrics (nil discards both).
	Obs *obs.Obs
	// SuspectTimeout is how long a suspect may refute before it is
	// declared dead.
	SuspectTimeout time.Duration
	// OnVerdict fires on liveness transitions: alive=false when a member
	// is confirmed dead, alive=true when it (re)joins or refutes. The
	// daemon fans it into every peer pool's SetRemoteDown. Called without
	// internal locks held; may be nil.
	OnVerdict func(addr string, alive bool)
}

type member struct {
	addr        string
	status      Status
	incarnation uint64
	since       time.Time // instant of the last status change
}

type queuedUpdate struct {
	u    wire.GossipUpdate
	left int // remaining retransmissions
}

// Node is one wallet's gossip participant. It implements
// remote.GossipHandler for the serving side; Start runs the probe loop.
type Node struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member
	queue   []*queuedUpdate
	selfInc uint64
	cursor  int
	closed  bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewNode builds a gossip node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.SelfAddr == "" {
		return nil, errors.New("gossip: Config.SelfAddr is required")
	}
	if cfg.Peers == nil {
		return nil, errors.New("gossip: Config.Peers is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = DefaultSuspectTimeout
	}
	n := &Node{
		cfg:     cfg,
		members: make(map[string]*member),
		quit:    make(chan struct{}),
	}
	if o := cfg.Obs; o.Registry() != nil {
		o.Registry().GaugeFunc("drbac_gossip_alive", func() int64 { a, _, _ := n.Counts(); return int64(a) })
		o.Registry().GaugeFunc("drbac_gossip_suspect", func() int64 { _, s, _ := n.Counts(); return int64(s) })
		o.Registry().GaugeFunc("drbac_gossip_dead", func() int64 { _, _, d := n.Counts(); return int64(d) })
	}
	return n, nil
}

// Join seeds the membership list with known addresses (bootstrap nodes or
// a shard map's members) and queues a self-alive announcement so the
// join disseminates on the first probes.
func (n *Node) Join(addrs []string) {
	n.mu.Lock()
	for _, a := range addrs {
		if a == "" || a == n.cfg.SelfAddr {
			continue
		}
		if _, ok := n.members[a]; !ok {
			n.members[a] = &member{addr: a, status: Alive, since: n.cfg.Clock.Now()}
		}
	}
	n.enqueueLocked(wire.GossipUpdate{Addr: n.cfg.SelfAddr, Status: "alive", Incarnation: n.selfInc})
	n.mu.Unlock()
}

// Start runs the probe loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.probeLoop()
}

// Close stops the probe loop and waits for in-flight probes.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.quit)
	n.wg.Wait()
}

// Counts reports members per state (self excluded).
func (n *Node) Counts() (alive, suspect, dead int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.members {
		switch m.status {
		case Alive:
			alive++
		case Suspect:
			suspect++
		case Dead:
			dead++
		}
	}
	return
}

// StatusOf reports one member's state; ok is false for unknown addresses.
func (n *Node) StatusOf(addr string) (Status, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.members[addr]
	if !ok {
		return 0, false
	}
	return m.status, true
}

// Members snapshots the membership list keyed by address.
func (n *Node) Members() map[string]Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]Status, len(n.members))
	for a, m := range n.members {
		out[a] = m.status
	}
	return out
}

// ---- probe loop ----

func (n *Node) probeLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case <-n.cfg.Clock.After(probeInterval):
			n.sweepSuspects()
			if target, ok := n.nextTarget(); ok {
				n.probe(target)
			}
		}
	}
}

// nextTarget picks the next non-dead member round-robin over the sorted
// address list — SWIM's bounded-staleness guarantee (every member is
// probed within one full rotation) without needing a shared RNG.
func (n *Node) nextTarget() (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addrs := make([]string, 0, len(n.members))
	for a, m := range n.members {
		if m.status != Dead {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return "", false
	}
	sort.Strings(addrs)
	n.cursor = (n.cursor + 1) % len(addrs)
	return addrs[n.cursor], true
}

// probe runs one SWIM round against target: direct ping, then indirect
// ping-req relays on silence, then suspicion.
func (n *Node) probe(target string) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	if n.pingDirect(ctx, target) {
		n.markAlive(target, 0, false)
		return
	}
	relays := n.relayCandidates(target)
	for _, relay := range relays {
		if n.pingIndirect(ctx, relay, target) {
			n.markAlive(target, 0, false)
			return
		}
	}
	n.suspect(target)
}

func (n *Node) pingDirect(ctx context.Context, target string) bool {
	cl, err := n.cfg.Peers.Get(ctx, target)
	if err != nil {
		return false
	}
	ack, err := cl.GossipPing(ctx, wire.GossipPingBody{From: n.cfg.SelfAddr, Updates: n.drain()})
	if err != nil {
		n.cfg.Peers.ReportFailure(target, cl)
		return false
	}
	n.applyUpdates(ack.Updates)
	return true
}

func (n *Node) pingIndirect(ctx context.Context, relay, target string) bool {
	cl, err := n.cfg.Peers.Get(ctx, relay)
	if err != nil {
		return false
	}
	ack, err := cl.GossipPing(ctx, wire.GossipPingBody{
		From:    n.cfg.SelfAddr,
		Target:  target,
		Updates: n.drain(),
	})
	if err != nil {
		n.cfg.Peers.ReportFailure(relay, cl)
		return false
	}
	n.applyUpdates(ack.Updates)
	return true
}

// relayCandidates picks up to indirectProbes alive members other than the
// target, spread round-robin like probe targets.
func (n *Node) relayCandidates(target string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	addrs := make([]string, 0, len(n.members))
	for a, m := range n.members {
		if a != target && m.status == Alive {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)
	if len(addrs) > indirectProbes {
		start := n.cursor % len(addrs)
		rot := append(addrs[start:], addrs[:start]...)
		addrs = rot[:indirectProbes]
	}
	return addrs
}

// sweepSuspects declares suspects dead once their refutation window
// lapses.
func (n *Node) sweepSuspects() {
	now := n.cfg.Clock.Now()
	var died []string
	n.mu.Lock()
	for a, m := range n.members {
		if m.status == Suspect && now.Sub(m.since) >= n.cfg.SuspectTimeout {
			m.status = Dead
			m.since = now
			n.enqueueLocked(wire.GossipUpdate{Addr: a, Status: "dead", Incarnation: m.incarnation})
			died = append(died, a)
		}
	}
	n.mu.Unlock()
	for _, a := range died {
		n.cfg.Obs.Log().Warn("gossip member dead", "addr", a)
		n.verdict(a, false)
	}
}

// ---- state transitions ----

// markAlive records direct or relayed evidence that addr answered. With
// firsthand=true (a direct ping FROM the member) it overrides even a dead
// verdict: a restarted member's own traffic is ground truth, so a rejoin
// does not wait on incarnation bookkeeping the member lost with its
// process.
func (n *Node) markAlive(addr string, incarnation uint64, firsthand bool) {
	if addr == "" || addr == n.cfg.SelfAddr {
		return
	}
	var revived bool
	n.mu.Lock()
	m, ok := n.members[addr]
	if !ok {
		m = &member{addr: addr, status: Alive, incarnation: incarnation, since: n.cfg.Clock.Now()}
		n.members[addr] = m
		n.enqueueLocked(wire.GossipUpdate{Addr: addr, Status: "alive", Incarnation: incarnation})
	} else if m.status != Alive {
		if m.status == Dead && !firsthand {
			// Secondhand "it answered a relay" does not resurrect a dead
			// member; its own refutation (or direct contact) must.
			n.mu.Unlock()
			return
		}
		inc := m.incarnation + 1
		if incarnation > inc {
			inc = incarnation
		}
		m.status = Alive
		m.incarnation = inc
		m.since = n.cfg.Clock.Now()
		n.enqueueLocked(wire.GossipUpdate{Addr: addr, Status: "alive", Incarnation: inc})
		revived = true
	}
	n.mu.Unlock()
	if revived {
		n.cfg.Obs.Log().Info("gossip member alive", "addr", addr)
		n.verdict(addr, true)
	}
}

// suspect moves addr to Suspect and disseminates the suspicion.
func (n *Node) suspect(addr string) {
	n.mu.Lock()
	m, ok := n.members[addr]
	if !ok || m.status != Alive {
		n.mu.Unlock()
		return
	}
	m.status = Suspect
	m.since = n.cfg.Clock.Now()
	n.enqueueLocked(wire.GossipUpdate{Addr: addr, Status: "suspect", Incarnation: m.incarnation})
	n.mu.Unlock()
	n.cfg.Obs.Log().Info("gossip member suspected", "addr", addr)
}

// applyUpdates merges piggybacked membership events under SWIM's
// precedence rules: a higher incarnation always wins; at equal
// incarnation dead beats suspect beats alive. An update about self that
// claims suspect/dead is refuted by bumping our incarnation and
// disseminating a fresh alive.
func (n *Node) applyUpdates(updates []wire.GossipUpdate) {
	var verdicts []struct {
		addr  string
		alive bool
	}
	n.mu.Lock()
	for _, u := range updates {
		st, ok := parseStatus(u.Status)
		if !ok || u.Addr == "" {
			continue
		}
		if u.Addr == n.cfg.SelfAddr {
			if st != Alive {
				if u.Incarnation >= n.selfInc {
					n.selfInc = u.Incarnation + 1
				}
				n.enqueueLocked(wire.GossipUpdate{Addr: n.cfg.SelfAddr, Status: "alive", Incarnation: n.selfInc})
			}
			continue
		}
		m, known := n.members[u.Addr]
		if !known {
			m = &member{addr: u.Addr, status: st, incarnation: u.Incarnation, since: n.cfg.Clock.Now()}
			n.members[u.Addr] = m
			n.enqueueLocked(u)
			if st == Dead {
				verdicts = append(verdicts, struct {
					addr  string
					alive bool
				}{u.Addr, false})
			}
			continue
		}
		if u.Incarnation < m.incarnation {
			continue
		}
		if u.Incarnation == m.incarnation && st <= m.status {
			continue
		}
		prev := m.status
		m.status = st
		m.incarnation = u.Incarnation
		m.since = n.cfg.Clock.Now()
		n.enqueueLocked(u)
		if st == Dead && prev != Dead {
			verdicts = append(verdicts, struct {
				addr  string
				alive bool
			}{u.Addr, false})
		}
		if st == Alive && prev != Alive {
			verdicts = append(verdicts, struct {
				addr  string
				alive bool
			}{u.Addr, true})
		}
	}
	n.mu.Unlock()
	for _, v := range verdicts {
		n.cfg.Obs.Log().Info("gossip verdict relayed", "addr", v.addr, "alive", v.alive)
		n.verdict(v.addr, v.alive)
	}
}

func (n *Node) verdict(addr string, alive bool) {
	if n.cfg.OnVerdict != nil {
		n.cfg.OnVerdict(addr, alive)
	}
}

// ---- piggyback queue ----

// enqueueLocked queues an update for dissemination, replacing any queued
// update about the same member (the newer event supersedes it). n.mu held.
func (n *Node) enqueueLocked(u wire.GossipUpdate) {
	for i, q := range n.queue {
		if q.u.Addr == u.Addr {
			n.queue[i] = &queuedUpdate{u: u, left: retransmit}
			return
		}
	}
	n.queue = append(n.queue, &queuedUpdate{u: u, left: retransmit})
}

// drain returns up to maxPiggyback pending updates, decrementing their
// retransmission budget and dropping exhausted ones.
func (n *Node) drain() []wire.GossipUpdate {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]wire.GossipUpdate, 0, maxPiggyback)
	kept := n.queue[:0]
	for _, q := range n.queue {
		if len(out) < maxPiggyback {
			out = append(out, q.u)
			q.left--
		}
		if q.left > 0 {
			kept = append(kept, q)
		}
	}
	n.queue = kept
	if len(out) == 0 {
		return nil
	}
	return out
}

// ---- serving side (remote.GossipHandler) ----

// HandlePing answers a direct probe: the sender is firsthand-alive, its
// updates merge, and our pending updates ride back on the ack.
func (n *Node) HandlePing(_ context.Context, _ core.Entity, req wire.GossipPingBody) (wire.GossipAck, error) {
	n.markAlive(req.From, 0, true)
	n.applyUpdates(req.Updates)
	return wire.GossipAck{From: n.cfg.SelfAddr, Updates: n.drain()}, nil
}

// HandlePingReq relays a probe to req.Target on the caller's behalf. A
// target that answers yields an ack (and firsthand-alive evidence here
// too); one that does not yields an error the caller counts as a failed
// indirect probe.
func (n *Node) HandlePingReq(ctx context.Context, _ core.Entity, req wire.GossipPingBody) (wire.GossipAck, error) {
	n.markAlive(req.From, 0, true)
	n.applyUpdates(req.Updates)
	if req.Target == "" {
		return wire.GossipAck{}, errors.New("gossip: ping-req without target")
	}
	if req.Target == n.cfg.SelfAddr {
		return wire.GossipAck{From: n.cfg.SelfAddr, Updates: n.drain()}, nil
	}
	rctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	cl, err := n.cfg.Peers.Get(rctx, req.Target)
	if err != nil {
		return wire.GossipAck{}, fmt.Errorf("gossip: relay to %s: %w", req.Target, err)
	}
	ack, err := cl.GossipPing(rctx, wire.GossipPingBody{From: n.cfg.SelfAddr, Updates: n.drain()})
	if err != nil {
		n.cfg.Peers.ReportFailure(req.Target, cl)
		return wire.GossipAck{}, fmt.Errorf("gossip: relay to %s: %w", req.Target, err)
	}
	n.markAlive(req.Target, 0, true)
	n.applyUpdates(ack.Updates)
	return wire.GossipAck{From: n.cfg.SelfAddr, Updates: n.drain()}, nil
}
