package remote

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/subs"
	"drbac/internal/wire"
)

// within runs f and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// A relying party whose callback never returns must not freeze its home
// wallet: the pushes for Maria's subscriptions queue on her connection, and
// the owner's revokes — and an unrelated publish — go through regardless.
func TestStalledSubscriberCannotFreezeHome(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")

	const n = 1000
	ds := make([]*core.Delegation, n)
	for i := range ds {
		ds[i] = e.deleg(fmt.Sprintf("[Mark -> BigISP.r%d] BigISP", i))
		if err := w.Publish(ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	defer close(release)
	for _, d := range ds {
		if _, err := c.Subscribe(context.Background(), d.ID(), func(subs.Event) { <-release }); err != nil {
			t.Fatal(err)
		}
	}

	for i, d := range ds {
		within(t, 2*time.Second, fmt.Sprintf("revoke #%d", i+1), func() error {
			return w.Revoke(d.ID(), e.id("BigISP").ID())
		})
	}
	within(t, 2*time.Second, "unrelated publish", func() error {
		return w.Publish(e.deleg("[Maria -> BigISP.member] BigISP"))
	})
}

// One connection holding a per-delegation subscription and a changelog
// stream receives both kinds of push in commit order: each event's stream
// push (which carries its seq), then the per-delegation push for the same
// event, and never a later event's push before an earlier one's.
func TestPushOrderOneConnection(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark")
	_, w := e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Mark")

	const n = 200
	ds := make([]*core.Delegation, n)
	for i := range ds {
		ds[i] = e.deleg(fmt.Sprintf("[Mark -> BigISP.r%d] BigISP", i))
		if err := w.Publish(ds[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(context.Background(), ds[i].ID(), func(subs.Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	// The stream sees every push raw, in the order the connection delivers
	// them; per-delegation pushes are the ones without a seq.
	var (
		mu  sync.Mutex
		got []wire.NotifyPush
	)
	all := make(chan struct{})
	if _, _, err := c.SubscribeAll(context.Background(), func(p wire.NotifyPush) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, p)
		if len(got) == 2*n {
			close(all)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if err := w.Revoke(d.ID(), e.id("BigISP").ID()); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("not every push arrived")
	}

	mu.Lock()
	defer mu.Unlock()
	for i, d := range ds {
		stream, one := got[2*i], got[2*i+1]
		if stream.Seq == 0 || stream.Delegation != d.ID() || one.Seq != 0 || one.Delegation != d.ID() {
			t.Fatalf("push %d,%d = (%s seq %d), (%s seq %d); want revoke #%d's stream push, then its notify",
				2*i, 2*i+1, stream.Delegation.Short(), stream.Seq, one.Delegation.Short(), one.Seq, i+1)
		}
		if i > 0 && stream.Seq != got[2*i-2].Seq+1 {
			t.Fatalf("stream push %d has seq %d after %d", i, stream.Seq, got[2*i-2].Seq)
		}
	}
}
