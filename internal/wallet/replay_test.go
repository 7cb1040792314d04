package wallet

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/sigcache"
)

// TestReplaySkipsAreCountedAndTriaged rebuilds a wallet over a store holding
// one good bundle, one with a tampered signature, and one malformed: the bad
// bundles must be refused (as before), but now counted in
// drbac_wallet_replay_skipped_total and logged with a structure-vs-signature
// triage instead of vanishing silently.
func TestReplaySkipsAreCountedAndTriaged(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Mark")
	st := newJournal()

	good := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := st.PutDelegation(1, good, nil); err != nil {
		t.Fatal(err)
	}

	// Tampering the signature leaves the content hash (and so the store
	// key) intact but fails verification.
	badSig := e.deleg("[Mark -> BigISP.member] BigISP")
	badSig.Signature = append([]byte(nil), badSig.Signature...)
	badSig.Signature[0] ^= 1
	if err := st.PutDelegation(2, badSig, nil); err != nil {
		t.Fatal(err)
	}

	malformed := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	malformed.DepthLimit = -1
	if err := st.PutDelegation(3, malformed, nil); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	reg := obs.NewRegistry()
	w := e.wallet(Config{
		Store:    st,
		Obs:      obs.New(obs.NewLogger(&logs, slog.LevelWarn, false), reg),
		SigCache: sigcache.New(0),
	})

	if w.Len() != 1 {
		t.Fatalf("replayed wallet holds %d delegations, want 1", w.Len())
	}
	if !w.Contains(good.ID()) {
		t.Error("good delegation did not survive replay")
	}
	if got := reg.Snapshot().Counters["drbac_wallet_replay_skipped_total"]; got != 2 {
		t.Errorf("drbac_wallet_replay_skipped_total = %d, want 2", got)
	}
	out := logs.String()
	if !strings.Contains(out, "cause=signature") {
		t.Errorf("log lacks a cause=signature skip:\n%s", out)
	}
	if !strings.Contains(out, "cause=structure") {
		t.Errorf("log lacks a cause=structure skip:\n%s", out)
	}
}

// TestReplayCleanStoreSkipsNothing pins the counter at zero for a healthy
// store so the metric is trustworthy as an alert signal.
func TestReplayCleanStoreSkipsNothing(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	st := newJournal()
	if err := st.PutDelegation(1, e.deleg("[Maria -> BigISP.member] BigISP"), nil); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w := e.wallet(Config{Store: st, Obs: obs.New(nil, reg), SigCache: sigcache.New(0)})
	if w.Len() != 1 {
		t.Fatalf("wallet holds %d delegations, want 1", w.Len())
	}
	if got := reg.Snapshot().Counters["drbac_wallet_replay_skipped_total"]; got != 0 {
		t.Errorf("drbac_wallet_replay_skipped_total = %d, want 0", got)
	}
}

// TestWalletStatsExposeSigCache checks that wallet.Stats surfaces the
// signature memo's counters and that validations actually flow through it.
func TestWalletStatsExposeSigCache(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	c := sigcache.New(0)
	w := e.wallet(Config{SigCache: c})
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.SigCache != c.Stats() {
		t.Errorf("Stats().SigCache = %+v, want %+v", st.SigCache, c.Stats())
	}
	if st.SigCache.Size == 0 {
		t.Error("publish did not populate the signature memo")
	}
}

// forgedSupportBundle is Table 1's third-party delegation (3) with a support
// proof whose first delegation carries a tampered signature: the bundle's own
// signature verifies, and only a check of its support proof can refuse it.
func (e *env) forgedSupportBundle() StoredBundle {
	e.t.Helper()
	d1 := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	d1.Signature = append([]byte(nil), d1.Signature...)
	d1.Signature[0] ^= 1
	d2 := e.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		e.t.Fatal(err)
	}
	return StoredBundle{Delegation: e.deleg("[Maria -> BigISP.member] Mark"), Support: []*core.Proof{sup}}
}

// TestInstallReplicatedRefusesForgedSupport: a follower admits a bundle's
// support proofs once, at install, and its queries never re-check their
// signatures, so a forged support signature must be refused there.
func TestInstallReplicatedRefusesForgedSupport(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := e.wallet(Config{SigCache: sigcache.New(0)})
	b := e.forgedSupportBundle()
	installed, err := w.InstallReplicated(b)
	var sigErr *core.SignatureError
	if installed || !errors.As(err, &sigErr) {
		t.Fatalf("InstallReplicated = %v, %v; want refused with a *core.SignatureError", installed, err)
	}
	if w.Len() != 0 || w.Seq() != 0 {
		t.Fatalf("refused bundle changed the wallet: len %d, seq %d", w.Len(), w.Seq())
	}
	if p, err := w.QueryDirect(Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}); err == nil {
		t.Fatalf("served a proof resting on a forged support signature: %v", p)
	}
}

// TestAdmissionChecksAgree: publish, a replicated install and a journal
// replay make one signature check of a bundle, covering nested support that
// validation never needs — here a proof attached to a self-certified step.
// So a bundle the primary journals and serves is one its restart and every
// follower keep, and one it refuses they refuse too.
func TestAdmissionChecksAgree(t *testing.T) {
	for _, forged := range []bool{false, true} {
		e := newEnv(t, "BigISP", "Mark", "Maria")
		unneeded := e.deleg("[Maria -> BigISP.memberServices] BigISP")
		if forged {
			unneeded.Signature = append([]byte(nil), unneeded.Signature...)
			unneeded.Signature[0] ^= 1
		}
		extra, err := core.NewProof(core.ProofStep{Delegation: unneeded})
		if err != nil {
			t.Fatal(err)
		}
		sup, err := core.NewProof(
			core.ProofStep{Delegation: e.deleg("[Mark -> BigISP.memberServices] BigISP"), Support: []*core.Proof{extra}},
			core.ProofStep{Delegation: e.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")})
		if err != nil {
			t.Fatal(err)
		}
		b := StoredBundle{Delegation: e.deleg("[Maria -> BigISP.member] Mark"), Support: []*core.Proof{sup}}
		id := b.Delegation.ID()

		primaryStore := newJournal()
		published := e.wallet(Config{Store: primaryStore, SigCache: sigcache.New(0)}).Publish(b.Delegation, b.Support...) == nil
		restarted := e.wallet(Config{Store: primaryStore, SigCache: sigcache.New(0)}).Contains(id)
		journal := newJournal()
		if err := journal.PutDelegation(1, b.Delegation, b.Support); err != nil {
			t.Fatal(err)
		}
		replayed := e.wallet(Config{Store: journal, SigCache: sigcache.New(0)}).Contains(id)
		installed, _ := e.wallet(Config{SigCache: sigcache.New(0)}).InstallReplicated(b)
		if published == forged || restarted != published || replayed != published || installed != published {
			t.Errorf("forged unneeded support %v: published %v, primary restart keeps %v, replay keeps %v, install keeps %v; want all %v",
				forged, published, restarted, replayed, installed, !forged)
		}
	}
}

// TestReplaySkipsForgedSupport is the replay counterpart: a journaled bundle
// whose support proof carries a forged signature is skipped, counted and
// triaged as a signature failure, not replayed into the graph.
func TestReplaySkipsForgedSupport(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	st := newJournal()
	b := e.forgedSupportBundle()
	if err := st.PutDelegation(1, b.Delegation, b.Support); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	reg := obs.NewRegistry()
	w := e.wallet(Config{
		Store:    st,
		Obs:      obs.New(obs.NewLogger(&logs, slog.LevelWarn, false), reg),
		SigCache: sigcache.New(0),
	})
	if w.Len() != 0 {
		t.Fatalf("replayed wallet holds %d delegations, want 0", w.Len())
	}
	if got := reg.Snapshot().Counters["drbac_wallet_replay_skipped_total"]; got != 1 {
		t.Errorf("drbac_wallet_replay_skipped_total = %d, want 1", got)
	}
	if out := logs.String(); !strings.Contains(out, "cause=signature") {
		t.Errorf("log lacks a cause=signature skip:\n%s", out)
	}
}
