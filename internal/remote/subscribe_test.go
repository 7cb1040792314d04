package remote

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// subscribeEnv serves a home wallet holding one delegation and dials it
// through a fault plan, so a test can stall or drop the client's frames.
func subscribeEnv(t *testing.T, rule transport.Fault) (*Client, *wallet.Wallet, *transport.Faults, *core.Delegation) {
	t.Helper()
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	plan := transport.NewFaults()
	plan.Set("wallet.bigisp", rule)
	c, err := Dial(context.Background(), &transport.FaultDialer{Inner: e.net.Dialer(e.id("Maria")), Plan: plan}, "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, w, plan, d
}

// revocations returns a handler that signals each Revoked push it sees.
func revocations() (func(subs.Event), <-chan struct{}) {
	ch := make(chan struct{}, 1)
	return func(ev subs.Event) {
		if ev.Kind == subs.Revoked {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}, ch
}

// awaitFeed polls id's subscription entry until ready holds of it.
func awaitFeed(c *Client, id core.DelegationID, ready func(*feed) bool) {
	for {
		c.mu.Lock()
		f := c.feeds[id]
		ok := f != nil && ready(f)
		c.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func inFlight(f *feed) bool { return f.busy != nil }

func awaitRevoked(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("revocation never reached the subscriber")
	}
}

// A subscriber that joins a subscribe still in flight gets that call's
// outcome: when the home never receives it, the joiner is told the failure,
// not a nil that no subscription at the home backs. A later subscribe is fed.
func TestSubscribeWaiterSharesFailure(t *testing.T) {
	c, w, plan, d := subscribeEnv(t, transport.Fault{})
	c.CallTimeout = 100 * time.Millisecond
	plan.Set("wallet.bigisp", transport.Fault{DropSends: true})
	first := make(chan error, 1)
	go func() {
		_, err := c.Subscribe(context.Background(), d.ID(), func(subs.Event) {})
		first <- err
	}()
	awaitFeed(c, d.ID(), inFlight)
	if _, err := c.Subscribe(context.Background(), d.ID(), func(subs.Event) {}); err == nil {
		t.Fatalf("second subscriber told nil while the home holds %d subscribers", w.Subscribers(d.ID()))
	}
	if err := <-first; err == nil {
		t.Fatal("first subscriber told nil although its request was dropped")
	}

	plan.Clear("wallet.bigisp")
	fn, revoked := revocations()
	if _, err := c.Subscribe(context.Background(), d.ID(), fn); err != nil {
		t.Fatal(err)
	}
	if n := w.Subscribers(d.ID()); n != 1 {
		t.Fatalf("home subscribers = %d, want 1", n)
	}
	if err := w.Revoke(d.ID(), d.Issuer.ID()); err != nil {
		t.Fatal(err)
	}
	awaitRevoked(t, revoked)
}

// A subscriber whose caller gives up during the shared subscribe fails only
// that caller: a concurrent subscriber of the same delegation, still waiting,
// sends its own subscribe and is served, and the home holds one subscriber.
func TestAbandonedSubscribeRetriedByWaiter(t *testing.T) {
	c, w, _, d := subscribeEnv(t, transport.Fault{FrameDelay: 50 * time.Millisecond})
	ctx, giveUp := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := c.Subscribe(ctx, d.ID(), func(subs.Event) {})
		leader <- err
	}()
	awaitFeed(c, d.ID(), inFlight)
	fn, revoked := revocations()
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Subscribe(context.Background(), d.ID(), fn)
		waiter <- err
	}()
	awaitFeed(c, d.ID(), func(f *feed) bool { return len(f.handlers) == 2 }) // the waiter waits on the leader's call
	giveUp()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want its own cancellation", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter failed with the leader: %v", err)
	}
	if n := w.Subscribers(d.ID()); n != 1 {
		t.Fatalf("home subscribers = %d, want 1", n)
	}
	if err := w.Revoke(d.ID(), d.Issuer.ID()); err != nil {
		t.Fatal(err)
	}
	awaitRevoked(t, revoked)
}

// Under subscribe/cancel churn from several goroutines, every caller that
// holds a subscription finds it held at the home. A joiner never gets nil
// before the home answers, and the last cancel holds the delegation's feed
// until the home has answered its unsubscribe, so a subscribe racing it is
// not applied first and then cancelled by it.
func TestSubscribeChurnStaysHeld(t *testing.T) {
	c, w, _, d := subscribeEnv(t, transport.Fault{})
	errs := make(chan error, 4)
	for range cap(errs) {
		go func() {
			for range 50 {
				cancel, err := c.Subscribe(context.Background(), d.ID(), func(subs.Event) {})
				if err != nil {
					errs <- err
					return
				}
				n := w.Subscribers(d.ID())
				cancel()
				if n != 1 {
					errs <- fmt.Errorf("home subscribers = %d while a subscription is held, want 1", n)
					return
				}
			}
			errs <- nil
		}()
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := w.Subscribers(d.ID()); n != 0 {
		t.Fatalf("home subscribers = %d after every cancel, want 0", n)
	}
}
