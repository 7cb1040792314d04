package remote

import (
	"context"
	"errors"
	"sync"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/subs"
	"drbac/internal/wallet"
)

// errHolderClosed reports a hold or follow on a closed Holder.
var errHolderClosed = errors.New("remote: holder closed")

// Holder owns the copies a local wallet holds of credentials fetched from
// their homes: a proxy's pulled credentials (§6) and a discovery agent's
// fetched ones (§4.2.1). It records each copy's home and the TTL it was
// inserted with, for exactly as long as the wallet holds the copy. A followed
// copy is subscribed at its home on every delegation it rests on, its support
// members included (§3.1.1), and each push is applied with the copy's TTL.
//
// A copy swept stale ends the subscriptions the holder keeps for it; a revoked
// or expired one's wait for Close, its home pushing nothing more on them. A
// copy fed through a Client leaves once that client is lost, every followed
// copy leaves on Close, and an unfollowed copy lapses with its TTL. Until a
// copy is followed, a Holder starts no goroutine and sends nothing.
type Holder struct {
	local   *wallet.Wallet
	obs     *obs.Obs
	untrack func()

	mu      sync.Mutex
	held    map[core.DelegationID]heldCopy // nil once closed
	spent   []func()                       // of copies gone revoked or expired
	watched map[*Client]bool               // clients whose loss is watched
	done    chan struct{}                  // ends the loss watchers
	wg      sync.WaitGroup
}

type heldCopy struct {
	home    string // empty for a copy pulled through a client
	ttl     time.Duration
	via     *Client  // the client that last followed it; nil if none has
	cancels []func() // the subscriptions Hold made for it
}

func cancelAll(cancels []func()) {
	for _, cancel := range cancels {
		cancel()
	}
}

// NewHolder builds a holder of copies in local; o receives its log.
func NewHolder(local *wallet.Wallet, o *obs.Obs) *Holder {
	h := &Holder{local: local, obs: o, held: make(map[core.DelegationID]heldCopy), untrack: func() {}}
	if local != nil {
		h.untrack = local.SubscribeAll(h.forget)
	}
	return h
}

// Hold inserts a bundle fetched from home as a copy cached under ttl, unless
// the local wallet holds the delegation, and records it. With a client c it
// follows the copy through c from the start: it subscribes before the insert,
// so no copy is held without a revocation feed, cancels if the insert fails,
// and leaves a copy it already follows as it is. It reports whether it
// inserted the copy.
func (h *Holder) Hold(ctx context.Context, c *Client, d *core.Delegation, support []*core.Proof, home string, ttl time.Duration) (bool, error) {
	id := d.ID()
	var cancels []func()
	if c != nil {
		h.mu.Lock()
		closed, followed := h.held == nil, h.held[id].cancels != nil
		h.mu.Unlock()
		if closed {
			return false, errHolderClosed
		} else if followed {
			return false, nil
		}
		var err error
		if cancels, err = h.subscribe(ctx, c, d, support, ttl); err != nil {
			return false, err
		}
	}
	inserted := !h.local.Contains(id)
	if inserted {
		if err := h.local.InsertCached(d, support, ttl); err != nil {
			cancelAll(cancels)
			return false, err
		}
	} else if c == nil {
		return false, nil
	}
	// Recorded under the lock forget takes, and only while the copy is held.
	// A lost client's watcher may have run already: nothing it fed is kept.
	h.mu.Lock()
	var err error
	switch e, ok := h.held[id]; {
	case h.held == nil:
		err = errHolderClosed
	case c != nil && !c.Healthy():
		err = ErrClientClosed
	case h.local.Contains(id):
		if !ok {
			e = heldCopy{home: home, ttl: ttl}
		}
		if c != nil {
			e.via, e.cancels = c, append(e.cancels, cancels...)
			h.watch(c)
		}
		h.held[id], cancels = e, nil
	}
	h.mu.Unlock()
	cancelAll(cancels)
	if err != nil && inserted {
		h.local.DropReplicated(id, subs.Stale)
	}
	return inserted && err == nil, err
}

// Follow follows by push each copy among p's delegations that the holder
// holds, through the client dial returns for the copy's home. The returned
// cancel ends these subscriptions; a lost client drops the copies it fed.
func (h *Holder) Follow(ctx context.Context, p *core.Proof, dial func(ctx context.Context, d *core.Delegation, home string) (*Client, error)) (cancel func(), err error) {
	var cancels []func()
	for _, d := range p.Delegations() {
		h.mu.Lock()
		e, held := h.held[d.ID()]
		h.mu.Unlock()
		_, support, ok := h.local.Get(d.ID())
		if !held || !ok {
			continue
		}
		c, err := dial(ctx, d, e.home)
		var cs []func()
		if err == nil {
			cs, err = h.subscribe(ctx, c, d, support, e.ttl)
		}
		cancels = append(cancels, cs...)
		if err != nil {
			cancelAll(cancels)
			return nil, err
		}
		h.mu.Lock()
		if e, held := h.held[d.ID()]; held && c.Healthy() {
			e.via = c
			h.held[d.ID()] = e
			h.watch(c)
		}
		h.mu.Unlock()
	}
	return func() { cancelAll(cancels) }, nil
}

// subscribe subscribes through c to d and every member of its support. A
// home that refuses a subscribe because it has revoked the delegation is
// heard as a revocation: the local wallet records it before the refusal is
// returned, so no copy resting on it is served.
func (h *Holder) subscribe(ctx context.Context, c *Client, d *core.Delegation, support []*core.Proof, ttl time.Duration) ([]func(), error) {
	on := func(ev subs.Event) { h.local.ApplyHomeEvent(ev, ttl) }
	var cancels []func()
	for _, r := range (&core.Proof{Steps: []core.ProofStep{{Delegation: d, Support: support}}}).Delegations() {
		cancel, err := c.Subscribe(ctx, r.ID(), on)
		if err != nil {
			if errors.Is(err, core.ErrNoProof) {
				h.local.AcceptRevocation(r.ID())
			}
			cancelAll(cancels)
			return nil, err
		}
		cancels = append(cancels, cancel)
	}
	return cancels, nil
}

// watch starts c's loss watcher unless it runs. Callers hold h.mu.
func (h *Holder) watch(c *Client) {
	if h.watched[c] {
		return
	}
	if h.watched == nil {
		h.watched, h.done = make(map[*Client]bool), make(chan struct{})
	}
	h.watched[c] = true
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		select {
		case <-c.Lost():
			h.lose(c)
		case <-h.done:
		}
	}()
}

// lose drops every copy fed through c, which can hear no revocation any more.
func (h *Holder) lose(c *Client) {
	h.mu.Lock()
	delete(h.watched, c)
	var gone []core.DelegationID
	var cancels []func()
	for id, e := range h.held {
		if e.via == c {
			gone, cancels = append(gone, id), append(cancels, e.cancels...)
			delete(h.held, id)
		}
	}
	h.mu.Unlock()
	if len(gone) > 0 {
		h.obs.Log().Warn("upstream lost; dropping the copies it fed", "copies", len(gone))
	}
	for _, id := range gone {
		h.local.DropReplicated(id, subs.Stale)
	}
	cancelAll(cancels)
}

// forget drops a copy's entry once the copy leaves the local wallet. It
// handles every local wallet event, under the wallet's mutation lock, so a
// stale copy's subscriptions are cancelled off it.
func (h *Holder) forget(ev subs.Event) {
	if ev.Kind != subs.Revoked && ev.Kind != subs.Expired && ev.Kind != subs.Stale {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.held[ev.Delegation]
	delete(h.held, ev.Delegation)
	if ev.Kind != subs.Stale {
		h.spent = append(h.spent, e.cancels...)
	} else if e.cancels != nil {
		h.wg.Add(1) // under h.mu while open, so Close waits for it
		go func() {
			defer h.wg.Done()
			cancelAll(e.cancels)
		}()
	}
}

// Held lists the copies the holder holds, in unspecified order.
func (h *Holder) Held() []core.DelegationID {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]core.DelegationID, 0, len(h.held))
	for id := range h.held {
		ids = append(ids, id)
	}
	return ids
}

// Close drops every followed copy from the local wallet and cancels every
// subscription Hold made.
func (h *Holder) Close() {
	h.mu.Lock()
	held, cancels := h.held, h.spent
	h.held, h.spent = nil, nil
	if held != nil && h.done != nil {
		close(h.done)
	}
	h.mu.Unlock()
	if held == nil {
		return
	}
	h.untrack()
	for id, e := range held {
		if e.via != nil {
			h.local.DropReplicated(id, subs.Stale)
			cancels = append(cancels, e.cancels...)
		}
	}
	cancelAll(cancels)
	h.wg.Wait()
}
