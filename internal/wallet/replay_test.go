package wallet

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

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
