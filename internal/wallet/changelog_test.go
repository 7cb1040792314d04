package wallet

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/subs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/changelog/*.golden from the current behaviour")

// transcript is the observable record of a scripted wallet history: every
// call made on the wallet, every write it issued to its store, and every
// event it published, in the order they happened. Delegation IDs print as
// the labels the script gave them.
type transcript struct {
	lines []string
	names map[core.DelegationID]string
}

func (tr *transcript) name(id core.DelegationID) string {
	if n, ok := tr.names[id]; ok {
		return n
	}
	return id.Short()
}

func (tr *transcript) addf(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

// call runs one wallet call and records it with its outcome (an error
// prints as "error": its text is not part of the changelog).
func (tr *transcript) call(what string, fn func() any) {
	tr.addf("> %s", what)
	res := fn()
	if err, ok := res.(error); ok && err != nil {
		res = "error"
	} else if res == nil {
		res = "ok"
	}
	tr.addf("  = %v", res)
}

// recStore is a Store that reports every write it is handed, with the seq
// it was stamped with, to note. detail is a put's support count or a
// revocation's added (always true: the wallet writes only new ones).
type recStore struct {
	Store
	note func(op string, seq uint64, id core.DelegationID, detail string)
}

func (s recStore) PutDelegation(seq uint64, d *core.Delegation, support []*core.Proof) error {
	s.note("put", seq, d.ID(), fmt.Sprintf("support=%d", len(support)))
	return s.Store.PutDelegation(seq, d, support)
}

func (s recStore) DeleteDelegation(seq uint64, id core.DelegationID) error {
	s.note("delete", seq, id, "")
	return s.Store.DeleteDelegation(seq, id)
}

func (s recStore) AddRevocation(seq uint64, id core.DelegationID, at time.Time) (bool, error) {
	added, err := s.Store.AddRevocation(seq, id, at)
	s.note("revoke", seq, id, fmt.Sprintf("added=%v", added))
	return added, err
}

// scenario is one scripted history. Its transcript is the one recorded
// before the wallet's mutations were folded onto commit(), byte for byte,
// except where a later issue changed the behaviour on purpose: fixed marks
// the three ISSUE 18 did (the TTL-over-publish and absent-drop bugs), and
// ISSUE 19 took three kinds of line out of whichever transcript had them —
// the "store put" of a TTL insert and the "store delete" of its stale drop
// (a cached copy is not journaled), and the "store revoke … added=false"
// probe of a revocation the wallet already holds (the wallet decides that
// itself) — and made store.seq in history-failing-store 14, the last write
// that reached the journal. Since a revocation's tombstone implies the
// delete, the "store delete" that followed each "store revoke" at the same
// seq is gone too; no stored list changed with it.
type scenario struct {
	name  string
	fail  bool
	fixed bool
	run   func(e *env, w *Wallet, tr *transcript)
}

var changelogScenarios = []scenario{
	{name: "history", run: scriptHistory},
	{name: "history-failing-store", fail: true, run: scriptHistory},
	{name: "publish-over-cached", fixed: true, run: func(e *env, w *Wallet, tr *transcript) {
		d := e.label(tr, "d", "[Maria -> BigISP.member] BigISP")
		tr.call("InsertCached d 30s", func() any { return w.InsertCached(d, nil, 30*time.Second) })
		tr.call("Publish d", func() any { return w.Publish(d) })
		e.clk.Advance(time.Hour)
		tr.call("SweepStaleCache +1h", func() any { return w.SweepStaleCache() })
	}},
	{name: "permanent-insert-over-cached", fixed: true, run: func(e *env, w *Wallet, tr *transcript) {
		d := e.label(tr, "d", "[Maria -> BigISP.member] BigISP")
		tr.call("InsertCached d 30s", func() any { return w.InsertCached(d, nil, 30*time.Second) })
		tr.call("InsertCached d 0", func() any { return w.InsertCached(d, nil, 0) })
		e.clk.Advance(time.Hour)
		tr.call("SweepStaleCache +1h", func() any { return w.SweepStaleCache() })
	}},
	{name: "stale-sweep-absent", fixed: true, run: func(e *env, w *Wallet, tr *transcript) {
		d := e.label(tr, "d", "[Maria -> BigISP.member] BigISP")
		tr.call("Publish keep", func() any {
			return w.Publish(e.label(tr, "keep", "[Mark -> BigISP.member] BigISP"))
		})
		// A TTL entry for a delegation the wallet does not hold — commit sets
		// and ends TTL tracking together with the graph change, so only a
		// test can make one — is forgotten, not acted on.
		tr.addf("> (ttl entry for d, which the wallet does not hold)")
		w.ttlMu.Lock()
		w.ttl[d.ID()] = w.Now().Add(30 * time.Second)
		w.ttlMu.Unlock()
		e.clk.Advance(time.Hour)
		tr.call("SweepStaleCache +1h", func() any { return w.SweepStaleCache() })
	}},
}

// label mints a delegation and gives its ID a name in the transcript.
func (e *env) label(tr *transcript, name, text string) *core.Delegation {
	d := e.deleg(text)
	tr.names[d.ID()] = name
	return d
}

// scriptHistory drives every mutation the wallet has — and every way each
// can turn out to change nothing — through one wallet. Sweeps are arranged
// to remove one delegation at a time so the transcript does not depend on
// map order.
func scriptHistory(e *env, w *Wallet, tr *transcript) {
	mark, maria, bigISP := e.id("Mark").ID(), e.id("Maria").ID(), e.id("BigISP").ID()
	d1 := e.label(tr, "d1", "[Mark -> BigISP.memberServices] BigISP")
	d2 := e.label(tr, "d2", "[BigISP.memberServices -> BigISP.member'] BigISP")
	d3 := e.label(tr, "d3", "[Maria -> BigISP.member] Mark")
	d4 := e.label(tr, "d4", "[Ann -> BigISP.member] BigISP <expiry:2026-07-06T12:30:00Z>")
	d5 := e.label(tr, "d5", "[Ann -> BigISP.guest] BigISP")
	d6 := e.label(tr, "d6", "[Maria -> BigISP.guest] BigISP")
	d7 := e.label(tr, "d7", "[Mark -> BigISP.guest] BigISP")

	tr.call("Publish d1", func() any { return w.Publish(d1) })
	tr.call("Publish d2", func() any { return w.Publish(d2) })
	tr.call("Publish d3 (support from own graph)", func() any { return w.Publish(d3) })
	tr.call("Publish d1 again", func() any { return w.Publish(d1) })
	tr.call("Publish nil", func() any { return w.Publish(nil) })
	tr.call("Publish d4 (expires 12:30)", func() any { return w.Publish(d4) })

	tr.call("InsertCached d5 30s", func() any { return w.InsertCached(d5, nil, 30*time.Second) })
	tr.call("RenewCached d1 (untracked)", func() any { return w.RenewCached(d1.ID(), 30*time.Second) })
	e.clk.Advance(20 * time.Second)
	tr.call("RenewCached d5 +20s", func() any { return w.RenewCached(d5.ID(), 30*time.Second) })
	e.clk.Advance(20 * time.Second)
	tr.call("SweepStaleCache +40s", func() any { return w.SweepStaleCache() })

	install := func(d *core.Delegation) any {
		ok, err := w.InstallReplicated(StoredBundle{Delegation: d})
		if err != nil {
			return err
		}
		return ok
	}
	tr.call("InstallReplicated d6", func() any { return install(d6) })
	tr.call("InstallReplicated d6 again", func() any { return install(d6) })
	tr.call("InstallReplicated nil", func() any { return install(nil) })

	tr.call("Revoke d3 by Maria (not the issuer)", func() any { return w.Revoke(d3.ID(), maria) })
	tr.call("Revoke d3 by Mark", func() any { return w.Revoke(d3.ID(), mark) })
	tr.call("AcceptRevocation d3 (already revoked)", func() any { w.AcceptRevocation(d3.ID()); return nil })
	tr.call("AcceptRevocation d7 (never held)", func() any { w.AcceptRevocation(d7.ID()); return nil })
	tr.call("Publish d3 (revoked)", func() any { return w.Publish(d3) })
	tr.call("InstallReplicated d7 (revoked)", func() any { return install(d7) })

	tr.call("DropReplicated d6 expired", func() any { return w.DropReplicated(d6.ID(), subs.Expired) })
	tr.call("DropReplicated d6 stale (absent)", func() any { return w.DropReplicated(d6.ID(), subs.Stale) })

	e.clk.Advance(time.Hour)
	tr.call("SweepExpired +1h", func() any { return w.SweepExpired() })
	tr.call("SweepExpired again", func() any { return w.SweepExpired() })
	tr.call("InstallReplicated d4 (expired)", func() any { return install(d4) })
	tr.call("SweepStaleCache +1h", func() any { return w.SweepStaleCache() })
	tr.call("RenewCached d5 (swept)", func() any { return w.RenewCached(d5.ID(), 30*time.Second) })
	tr.call("Publish d5 (after its removal)", func() any { return w.Publish(d5) })
	tr.call("Revoke d5 by BigISP", func() any { return w.Revoke(d5.ID(), bigISP) })
}

// TestGoldenChangelog pins the changelog: for each scripted history, the
// exact sequence of store writes (with the seq each was stamped with) and
// published events (seq, kind, delegation), plus the state they leave: the
// wallet's seq, graph and revoked set, and the seq and bundles its journal
// would load. See scenario for where the golden files come from.
func TestGoldenChangelog(t *testing.T) {
	for _, sc := range changelogScenarios {
		t.Run(sc.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Mark", "Maria", "Ann")
			tr := &transcript{names: make(map[core.DelegationID]string)}
			jr := newJournal()
			var inner Store = jr
			if sc.fail {
				inner = failingStore{jr}
			}
			st := recStore{Store: inner, note: func(op string, seq uint64, id core.DelegationID, detail string) {
				tr.addf("%s", strings.TrimRight(fmt.Sprintf("  store %-6s seq=%d %s %s", op, seq, tr.name(id), detail), " "))
			}}
			w := e.wallet(Config{Store: st})
			w.SubscribeAll(func(ev subs.Event) {
				tr.addf("  event        seq=%d %s %s", ev.Seq, ev.Kind, tr.name(ev.Delegation))
			})
			sc.run(e, w, tr)

			var held, stored, revoked []string
			for _, d := range w.Delegations() {
				held = append(held, tr.name(d.ID()))
			}
			journaled := jr.Load()
			for _, b := range journaled.Bundles {
				stored = append(stored, tr.name(b.Delegation.ID()))
			}
			for _, id := range w.RevokedIDs() {
				revoked = append(revoked, tr.name(id))
			}
			sort.Strings(held)
			sort.Strings(stored)
			sort.Strings(revoked)
			tr.addf("final: seq=%d store.seq=%d ttl=%d graph=%v store=%v revoked=%v",
				w.Seq(), journaled.Seq, w.CachedCount(), held, stored, revoked)

			got := strings.Join(tr.lines, "\n") + "\n"
			path := filepath.Join("testdata", "changelog", sc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("changelog differs from %s (fixed=%v)\n--- got ---\n%s--- want ---\n%s", path, sc.fixed, got, want)
			}
		})
	}
}
