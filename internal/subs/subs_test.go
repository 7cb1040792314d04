package subs

import (
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
)

func ev(id string, kind EventKind) Event {
	return Event{Delegation: core.DelegationID(id), Kind: kind, At: time.Unix(0, 0)}
}

func TestSubscribePublish(t *testing.T) {
	r := NewRegistry()
	var got []Event
	cancel := r.Subscribe("d1", func(e Event) { got = append(got, e) })
	defer cancel()

	r.Publish(ev("d1", Revoked))
	r.Publish(ev("d2", Revoked)) // different delegation: not delivered
	if len(got) != 1 || got[0].Kind != Revoked || got[0].Delegation != "d1" {
		t.Fatalf("got %v", got)
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	r := NewRegistry()
	count := 0
	cancel := r.Subscribe("d1", func(Event) { count++ })
	r.Publish(ev("d1", Revoked))
	cancel()
	cancel() // idempotent
	r.Publish(ev("d1", Revoked))
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if r.Subscribers("d1") != 0 {
		t.Fatal("subscriber table not cleaned up")
	}
}

func TestMultipleSubscribersOrdered(t *testing.T) {
	r := NewRegistry()
	var order []int
	r.Subscribe("d1", func(Event) { order = append(order, 1) })
	r.Subscribe("d1", func(Event) { order = append(order, 2) })
	r.Subscribe("d1", func(Event) { order = append(order, 3) })
	r.Publish(ev("d1", Expired))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if r.Subscribers("d1") != 3 || r.Total() != 3 {
		t.Fatalf("Subscribers=%d Total=%d", r.Subscribers("d1"), r.Total())
	}
}

func TestHandlerMayReenterRegistry(t *testing.T) {
	r := NewRegistry()
	var inner int
	r.Subscribe("d1", func(Event) {
		// Re-entering Subscribe/Publish from a handler must not deadlock.
		cancel := r.Subscribe("d2", func(Event) { inner++ })
		defer cancel()
		r.Publish(ev("d2", Renewed))
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Publish(ev("d1", Revoked))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("re-entrant publish deadlocked")
	}
	if inner != 1 {
		t.Fatalf("inner = %d", inner)
	}
}

func TestConcurrentSubscribePublish(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancel := r.Subscribe("d1", func(Event) {
				mu.Lock()
				count++
				mu.Unlock()
			})
			r.Publish(ev("d1", Renewed))
			cancel()
		}()
	}
	wg.Wait()
	if r.Total() != 0 {
		t.Fatalf("Total = %d after all cancels", r.Total())
	}
	mu.Lock()
	defer mu.Unlock()
	if count < 16 {
		t.Fatalf("count = %d, want >= 16 (each publisher sees at least itself)", count)
	}
}

func TestEventKindString(t *testing.T) {
	tests := []struct {
		give EventKind
		want string
	}{
		{Revoked, "revoked"},
		{Expired, "expired"},
		{Renewed, "renewed"},
		{Stale, "stale"},
		{Published, "published"},
		{EventKind(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

// ParseKind inverts String over every kind, and nothing else parses: not the
// "unknown" rendering of an out-of-range kind, not a near miss.
func TestParseKindRoundTrip(t *testing.T) {
	for k := Revoked; k <= Published; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, ok, k)
		}
	}
	for _, s := range []string{"", "unknown", "Revoked", "revoke", (Published + 1).String()} {
		if k, ok := ParseKind(s); ok {
			t.Errorf("ParseKind(%q) = %v, want not ok", s, k)
		}
	}
}

func TestSubscribeAllReceivesEveryEvent(t *testing.T) {
	r := NewRegistry()
	var got []Event
	cancel := r.SubscribeAll(func(ev Event) { got = append(got, ev) })

	r.Publish(Event{Delegation: "aa", Kind: Revoked})
	r.Publish(Event{Delegation: "bb", Kind: Published})
	if len(got) != 2 || got[0].Delegation != "aa" || got[1].Kind != Published {
		t.Fatalf("wildcard deliveries = %v", got)
	}

	cancel()
	cancel() // idempotent
	r.Publish(Event{Delegation: "cc", Kind: Expired})
	if len(got) != 2 {
		t.Fatalf("delivery after cancel: %v", got)
	}
}

// TestWildcardRunsBeforePerDelegation pins the invalidate-before-react
// ordering the wallet's proof cache depends on.
func TestWildcardRunsBeforePerDelegation(t *testing.T) {
	r := NewRegistry()
	var order []string
	// Register the per-delegation handler FIRST; the wildcard must still be
	// delivered ahead of it.
	r.Subscribe("aa", func(Event) { order = append(order, "sub") })
	r.SubscribeAll(func(Event) { order = append(order, "wild") })

	r.Publish(Event{Delegation: "aa", Kind: Revoked})
	if len(order) != 2 || order[0] != "wild" || order[1] != "sub" {
		t.Fatalf("delivery order = %v, want [wild sub]", order)
	}
}
