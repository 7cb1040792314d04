package wallet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/subs"
)

// CommitTable lets the external test run the table over a log store, which
// this package cannot import.
var CommitTable = commitTable

// writeLog collects the writes a recStore reports as "op@seq".
type writeLog []string

func (l *writeLog) store(inner Store) recStore {
	return recStore{Store: inner, note: func(op string, seq uint64, _ core.DelegationID, _ string) {
		*l = append(*l, fmt.Sprintf("%s@%d", op, seq))
	}}
}

const expiring = "[Maria -> BigISP.member] BigISP <expiry:2026-07-06T12:30:00Z>"
const lasting = "[Maria -> BigISP.member] BigISP"

// commitTable drives each of the wallet's seven mutations once where it
// changes something and once where it does not, over the store newStore
// returns, and those that can meet a TTL-tracked cached copy once more over
// one. A change is exactly one seq step, one event of the right kind carrying
// that seq, and store writes stamped with it — none for what happens to a
// cached copy short of its publication or revocation; it ends the
// delegation's TTL tracking unless it is a TTL insert or a renewal. No change
// is no seq, no event and no store write.
func commitTable(t *testing.T, newStore func(t *testing.T) Store) {
	publish := func(_ *env, w *Wallet, d *core.Delegation) { must(t, w.Publish(d)) }
	cache := func(_ *env, w *Wallet, d *core.Delegation) { must(t, w.InsertCached(d, nil, time.Minute)) }
	nothing := func(*env, *Wallet, *core.Delegation) {}
	install := func(_ *env, w *Wallet, d *core.Delegation) {
		_, err := w.InstallReplicated(StoredBundle{Delegation: d})
		must(t, err)
	}
	accept := func(_ *env, w *Wallet, d *core.Delegation) { w.AcceptRevocation(d.ID()) }
	expire := func(e *env, w *Wallet, _ *core.Delegation) { e.clk.Advance(time.Hour); w.SweepExpired() }
	for _, tc := range []struct {
		name    string
		text    string
		kind    subs.EventKind
		arrange func(e *env, w *Wallet, d *core.Delegation)
		act     func(e *env, w *Wallet, d *core.Delegation)
		writes  []string // store operations of the change, in order
		tracked bool     // TTL-tracked after the change
		noop    func(e *env, w *Wallet, d *core.Delegation)
	}{
		{name: "publish", text: lasting, kind: subs.Published, arrange: nothing, act: publish,
			writes: []string{"put"}, noop: cache /* held permanently: stays so */},
		{name: "publish-over-cached", text: lasting, kind: subs.Published, arrange: cache, act: publish,
			writes: []string{"put"}},
		{name: "cache", text: lasting, kind: subs.Published, arrange: nothing, act: cache, tracked: true},
		{name: "install-replicated", text: lasting, kind: subs.Published, arrange: nothing, act: install,
			writes: []string{"put"}, noop: install /* already present */},
		{name: "revoke", text: lasting, kind: subs.Revoked, arrange: publish,
			act:    func(e *env, w *Wallet, d *core.Delegation) { _ = w.Revoke(d.ID(), e.id("BigISP").ID()) },
			writes: []string{"revoke", "delete"}, noop: accept /* already revoked */},
		{name: "revoke-cached", text: lasting, kind: subs.Revoked, arrange: cache, act: accept,
			writes: []string{"revoke", "delete"}},
		{name: "expire", text: expiring, kind: subs.Expired, arrange: publish, act: expire,
			writes: []string{"delete"},
			noop:   func(_ *env, w *Wallet, _ *core.Delegation) { w.SweepExpired() }},
		{name: "expire-cached", text: expiring, kind: subs.Expired, arrange: cache, act: expire},
		{name: "renew", text: lasting, kind: subs.Renewed, arrange: cache, tracked: true,
			act: func(_ *env, w *Wallet, d *core.Delegation) { w.RenewCached(d.ID(), time.Minute) },
			noop: func(e *env, w *Wallet, d *core.Delegation) {
				w.RenewCached(e.deleg("[Maria -> BigISP.guest] BigISP").ID(), time.Minute) // untracked
				w.RenewCached(d.ID(), 0)                                                   // no window
			}},
		{name: "stale", text: lasting, kind: subs.Stale, arrange: cache,
			act:  func(e *env, w *Wallet, _ *core.Delegation) { e.clk.Advance(time.Hour); w.SweepStaleCache() },
			noop: func(_ *env, w *Wallet, _ *core.Delegation) { w.SweepStaleCache() }},
		{name: "drop-replicated", text: lasting, kind: subs.Stale, arrange: install,
			act:    func(_ *env, w *Wallet, d *core.Delegation) { w.DropReplicated(d.ID(), subs.Stale) },
			writes: []string{"delete"},
			noop:   func(_ *env, w *Wallet, d *core.Delegation) { w.DropReplicated(d.ID(), subs.Stale) /* absent */ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Maria")
			var writes writeLog
			w := e.wallet(Config{Store: writes.store(newStore(t))})
			d := e.deleg(tc.text)
			tc.arrange(e, w, d)
			var events []subs.Event
			w.SubscribeAll(func(ev subs.Event) { events = append(events, ev) })

			writes = nil
			seq := w.Seq() + 1
			tc.act(e, w, d)

			if got := w.Seq(); got != seq {
				t.Errorf("seq = %d after the change, want %d", got, seq)
			}
			if len(events) != 1 || events[0].Kind != tc.kind || events[0].Seq != seq || events[0].Delegation != d.ID() {
				t.Errorf("events = %+v, want one %v at seq %d for %s", events, tc.kind, seq, d.ID().Short())
			}
			var want []string
			for _, op := range tc.writes {
				want = append(want, fmt.Sprintf("%s@%d", op, seq))
			}
			if !reflect.DeepEqual([]string(writes), want) {
				t.Errorf("store writes = %v, want %v", writes, want)
			}
			w.ttlMu.Lock()
			_, tracked := w.ttl[d.ID()]
			w.ttlMu.Unlock()
			if tracked != tc.tracked {
				t.Errorf("TTL tracked = %v after the change, want %v", tracked, tc.tracked)
			}

			if tc.noop == nil {
				return
			}
			writes, events = nil, nil
			tc.noop(e, w, d)
			if w.Seq() != seq || len(events) != 0 || len(writes) != 0 {
				t.Errorf("no-op moved the changelog: seq %d → %d, events %+v, store writes %v",
					seq, w.Seq(), events, writes)
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommitOnePath(t *testing.T) {
	t.Run("memstore", func(t *testing.T) {
		commitTable(t, func(*testing.T) Store { return NewMemStore() })
	})
	t.Run("failing-store", func(t *testing.T) {
		commitTable(t, func(*testing.T) Store { return failingStore{newJournal()} })
	})
}

// A direct Publish over a TTL-tracked cached copy makes the delegation
// permanent: the stale sweep must not take a published delegation out of
// the store and the graph.
func TestPublishOverCachedCopyIsPermanent(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	st := newJournal()
	w := e.wallet(Config{Store: st})
	d := e.deleg(lasting)
	must(t, w.InsertCached(d, nil, 30*time.Second))
	must(t, w.Publish(d))
	e.clk.Advance(time.Hour)
	if n := w.SweepStaleCache(); n != 0 || !w.Contains(d.ID()) || len(st.Load().Bundles) != 1 {
		t.Fatalf("after the sweep: swept=%d contains=%v journaled=%d, want 0 true 1",
			n, w.Contains(d.ID()), len(st.Load().Bundles))
	}
}

// InsertCached with a zero TTL over a TTL-tracked copy is permanent too.
func TestPermanentInsertOverCachedCopy(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg(lasting)
	must(t, w.InsertCached(d, nil, 30*time.Second))
	must(t, w.InsertCached(d, nil, 0))
	if w.CachedCount() != 0 {
		t.Errorf("CachedCount = %d after the permanent insert, want 0", w.CachedCount())
	}
	e.clk.Advance(time.Hour)
	if n := w.SweepStaleCache(); n != 0 || !w.Contains(d.ID()) {
		t.Fatalf("after the sweep: swept=%d contains=%v, want 0 true", n, w.Contains(d.ID()))
	}
	// A cached copy arriving afterwards cannot make the home copy cache
	// again: a TTL insert over a delegation held permanently is no change.
	seq, events := w.Seq(), 0
	w.SubscribeAll(func(subs.Event) { events++ })
	must(t, w.InsertCached(d, nil, 30*time.Second))
	if w.Seq() != seq || events != 0 || w.CachedCount() != 0 {
		t.Errorf("TTL insert over the permanent copy: seq %d → %d, %d events, %d TTL-tracked; want no change",
			seq, w.Seq(), events, w.CachedCount())
	}
	e.clk.Advance(time.Hour)
	if n := w.SweepStaleCache(); n != 0 || !w.Contains(d.ID()) {
		t.Fatalf("the permanent copy was swept as stale: swept=%d contains=%v, want 0 true", n, w.Contains(d.ID()))
	}
}

// A lapsed TTL entry whose delegation is not held (commit rules it out; the
// test plants one) is forgotten without a seq, a delete record or a Stale
// push for a delegation the wallet does not hold.
func TestStaleSweepIgnoresAbsentDelegation(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	var writes writeLog
	w := e.wallet(Config{Store: writes.store(NewMemStore())})
	d := e.deleg(lasting)
	events := 0
	w.SubscribeAll(func(subs.Event) { events++ })
	w.ttlMu.Lock()
	w.ttl[d.ID()] = w.Now().Add(30 * time.Second)
	w.ttlMu.Unlock()
	e.clk.Advance(time.Hour)
	if n := w.SweepStaleCache(); n != 0 || w.Seq() != 0 || events != 0 || len(writes) != 0 {
		t.Fatalf("swept=%d seq=%d events=%d store writes=%v, want nothing to happen", n, w.Seq(), events, writes)
	}
	if w.CachedCount() != 0 {
		t.Errorf("the dangling TTL entry survived the sweep")
	}
}
