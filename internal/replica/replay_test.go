package replica

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/remote"
	"drbac/internal/wallet"
)

// feedHistory is the upstream history TestReplayFeedsAgree delivers over
// every feed, in two halves so the resync feed can split it: publishes, a
// sequenced-but-unrecorded renewal, a delete followed by a re-publish, a key
// the follower's filter refuses, an expiry and a revocation. It announces
// feedPuts publications, holds halfBundles bundles after the first half and
// feedBundles after the second.
type feedHistory struct {
	a, b, c, x, d, y                   *core.Delegation
	firstHalf, secondHalf              func(up *wallet.Wallet)
	filter                             func(*core.Delegation) bool
	filterCalls                        atomic.Int64
	feedPuts, halfBundles, feedBundles int64
}

// newFeedHistory scripts the history over e's clock. Every feed replays the
// same signed delegations, ds (a b c x d y), so follower states compare byte
// for byte.
func newFeedHistory(t *testing.T, e *env, ds []*core.Delegation) *feedHistory {
	h := &feedHistory{a: ds[0], b: ds[1], c: ds[2], x: ds[3], d: ds[4], y: ds[5]}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	h.firstHalf = func(up *wallet.Wallet) {
		for _, d := range []*core.Delegation{h.a, h.b, h.c, h.x} {
			must(up.Publish(d))
		}
		must(up.InsertCached(h.d, nil, 30*time.Second))
		up.RenewCached(h.d.ID(), 30*time.Second)
		e.clk.Advance(time.Hour)
		if n := up.SweepStaleCache(); n != 1 {
			t.Fatalf("stale sweep removed %d, want d alone", n)
		}
		must(up.Publish(h.d))
	}
	h.secondHalf = func(up *wallet.Wallet) {
		if n := up.SweepExpired(); n != 1 {
			t.Fatalf("expiry sweep removed %d, want c alone", n)
		}
		must(up.Revoke(h.a.ID(), e.id("BigISP").ID()))
		must(up.Publish(h.y))
	}
	h.feedPuts, h.halfBundles, h.feedBundles = 7, 5, 4 // a b c x d(cached) d y; a b c x d; b x d y
	h.filter = func(d *core.Delegation) bool {
		h.filterCalls.Add(1)
		return d.ID() != h.x.ID()
	}
	return h
}

// state renders a wallet's replicable state canonically.
func state(w *wallet.Wallet) string {
	var lines []string
	for _, d := range w.Delegations() {
		_, support, _ := w.Get(d.ID())
		lines = append(lines, fmt.Sprintf("bundle %s support=%d", d.ID(), len(support)))
	}
	for _, id := range w.RevokedIDs() {
		lines = append(lines, fmt.Sprintf("revoked %s", id))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestReplayFeedsAgree delivers one upstream history four ways — as a live
// stream, as a sync snapshot from a MemStore upstream, as one from a
// log-store upstream, and as a sync of its first half followed by a resync
// after the second — and requires byte-identical follower state, the
// upstream's seq as the applied seq, and the filter consulted exactly once
// per put delivered. The journal behind the upstream changes nothing: a
// follower learns the upstream's memory.
func TestReplayFeedsAgree(t *testing.T) {
	// follow starts a real follower of up and waits for it to catch up.
	follow := func(t *testing.T, e *env, h *feedHistory, up *wallet.Wallet, after func()) (*Follower, *wallet.Wallet) {
		e.serve("primary", "BigISP", up, remote.Options{Role: "primary"})
		fw := e.wallet("Replica", nil)
		f, err := Start(Config{Local: fw, Addrs: []string{"primary"}, Dialer: e.net.Dialer(e.id("Replica")), Filter: h.filter})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		waitFor(t, "live stream", func() bool { return f.Status().Connected })
		after()
		waitFor(t, "catch-up", func() bool { return f.Status().AppliedSeq == up.Seq() })
		return f, fw
	}
	// snapshot delivers the whole history as the bootstrap sync of up.
	snapshot := func(t *testing.T, e *env, h *feedHistory, up *wallet.Wallet) (*wallet.Wallet, uint64) {
		h.firstHalf(up)
		h.secondHalf(up)
		f, fw := follow(t, e, h, up, func() {})
		return fw, f.Status().AppliedSeq
	}

	type outcome struct {
		state   string
		applied uint64
	}
	feeds := []struct {
		name  string
		calls func(h *feedHistory) int64
		run   func(t *testing.T, e *env, h *feedHistory) (*wallet.Wallet, uint64)
	}{
		{"stream", func(h *feedHistory) int64 { return h.feedPuts },
			func(t *testing.T, e *env, h *feedHistory) (*wallet.Wallet, uint64) {
				up := e.wallet("BigISP", nil)
				f, fw := follow(t, e, h, up, func() { h.firstHalf(up); h.secondHalf(up) })
				if f.Status().Resyncs != 0 {
					t.Errorf("Resyncs = %d on a clean stream", f.Status().Resyncs)
				}
				return fw, f.Status().AppliedSeq
			}},
		{"snapshot", func(h *feedHistory) int64 { return h.feedBundles },
			func(t *testing.T, e *env, h *feedHistory) (*wallet.Wallet, uint64) {
				return snapshot(t, e, h, e.wallet("BigISP", nil))
			}},
		{"snapshot-logstore", func(h *feedHistory) int64 { return h.feedBundles },
			func(t *testing.T, e *env, h *feedHistory) (*wallet.Wallet, uint64) {
				return snapshot(t, e, h, e.logPrimary(nil))
			}},
		{"resync", func(h *feedHistory) int64 { return h.halfBundles + h.feedBundles },
			func(t *testing.T, e *env, h *feedHistory) (*wallet.Wallet, uint64) {
				up := e.logPrimary(nil)
				e.serve("primary", "BigISP", up, remote.Options{Role: "primary"})
				c, err := remote.Dial(context.Background(), e.net.Dialer(e.id("Replica")), "primary")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				fw := e.wallet("Replica", nil)
				f := &Follower{cfg: Config{Local: fw, Filter: h.filter}}
				h.firstHalf(up)
				if err := f.syncOnce(context.Background(), c); err != nil {
					t.Fatal(err)
				}
				if mid := f.applied.Load(); mid == 0 || mid != up.Seq() {
					t.Fatalf("applied %d after the first half, upstream at %d", mid, up.Seq())
				}
				// The resync reconciles: what the first sync installed and the
				// second half removed (c expired, a revoked) must go.
				h.secondHalf(up)
				if err := f.resync(context.Background(), c, "second half"); err != nil {
					t.Fatal(err)
				}
				return fw, f.applied.Load()
			}},
	}
	var ds []*core.Delegation
	mint := newEnv(t, "BigISP", "Maria")
	for _, text := range []string{
		"[Maria -> BigISP.member] BigISP",
		"[BigISP.member -> BigISP.user] BigISP",
		"[Maria -> BigISP.guest] BigISP <expiry:2026-07-06T12:30:00Z>",
		"[Maria -> BigISP.elsewhere] BigISP",
		"[Maria -> BigISP.cached] BigISP",
		"[Maria -> BigISP.late] BigISP",
	} {
		ds = append(ds, mint.deleg(text))
	}
	var first *outcome
	for _, feed := range feeds {
		t.Run(feed.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Maria", "Replica")
			h := newFeedHistory(t, e, ds)
			fw, applied := feed.run(t, e, h)
			got := outcome{state: state(fw), applied: applied}
			if calls := h.filterCalls.Load(); calls != feed.calls(h) {
				t.Errorf("filter consulted %d times, want once per put delivered = %d", calls, feed.calls(h))
			}
			if fw.Contains(h.x.ID()) || !fw.Contains(h.d.ID()) || !fw.IsRevoked(h.a.ID()) || fw.Len() != 3 {
				t.Errorf("follower state is not the history's outcome (b, d, y held; a revoked; x filtered):\n%s", got.state)
			}
			if first == nil {
				first = &got
				return
			}
			if got.state != first.state || got.applied != first.applied {
				t.Errorf("feed disagrees with %s: applied %d vs %d\n--- this feed ---\n%s\n--- %s ---\n%s",
					feeds[0].name, got.applied, first.applied, got.state, feeds[0].name, first.state)
			}
		})
	}
}
