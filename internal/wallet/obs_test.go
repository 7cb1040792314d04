package wallet

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/subs"
)

// TestWalletMetrics drives an instrumented wallet through the Table 1
// workload and checks the registry mirrors what happened: publications,
// queries, cache behaviour via gauges, search effort, and revocations.
func TestWalletMetrics(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	reg := obs.NewRegistry()
	w := e.wallet(Config{Obs: obs.New(nil, reg)})
	_, _, d3 := e.publishTable1(w)

	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	if _, err := w.QueryDirect(q); err != nil { // miss: graph search
		t.Fatal(err)
	}
	if _, err := w.QueryDirect(q); err != nil { // hit: proof cache
		t.Fatal(err)
	}
	w.QuerySubject(e.subject("Maria"), nil)
	w.QueryObject(e.role("BigISP.member"), nil)
	if err := w.Revoke(d3.ID(), e.id("Mark").ID()); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	wantCounters := map[string]int64{
		"drbac_wallet_publish_total":       3,
		"drbac_wallet_query_direct_total":  2,
		"drbac_wallet_query_subject_total": 1,
		"drbac_wallet_query_object_total":  1,
		"drbac_wallet_revocations_total":   1,
	}
	for name, want := range wantCounters {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if s.Counters["drbac_search_nodes_total"] == 0 || s.Counters["drbac_search_edges_total"] == 0 {
		t.Errorf("search effort not mirrored: nodes=%d edges=%d",
			s.Counters["drbac_search_nodes_total"], s.Counters["drbac_search_edges_total"])
	}
	// Revocation fires the wildcard subscription hook.
	if s.Counters["drbac_subs_events_total"] == 0 {
		t.Error("subscription events not counted")
	}
	// d3 revoked: two delegations remain; the cache saw one miss, one hit.
	if got := s.Gauges["drbac_wallet_delegations"]; got != 2 {
		t.Errorf("drbac_wallet_delegations = %d, want 2", got)
	}
	if got := s.Gauges["drbac_wallet_revoked"]; got != 1 {
		t.Errorf("drbac_wallet_revoked = %d, want 1", got)
	}
	if got := s.Gauges["drbac_wallet_cache_hits"]; got != 1 {
		t.Errorf("drbac_wallet_cache_hits = %d, want 1", got)
	}
	if s.Gauges["drbac_wallet_cache_misses"] == 0 {
		t.Error("cache misses gauge is zero")
	}
	h := s.Histograms["drbac_wallet_query_seconds"]
	if h.Count != 2 {
		t.Errorf("query latency observations = %d, want 2", h.Count)
	}
	if h.Sum <= 0 {
		t.Errorf("query latency sum = %v, want > 0", h.Sum)
	}
}

// TestWalletMetricsErrors checks the error counters move on rejected
// publications, failed revocations, and unprovable queries.
func TestWalletMetricsErrors(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	reg := obs.NewRegistry()
	w := e.wallet(Config{Obs: obs.New(nil, reg)})

	// Third-party delegation without support is rejected.
	bad := e.deleg("[Maria -> BigISP.member] Mark")
	if err := w.Publish(bad); err == nil {
		t.Fatal("unsupported third-party delegation accepted")
	}
	d1 := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	if err := w.Publish(d1); err != nil {
		t.Fatal(err)
	}
	// Revocation by a non-issuer fails.
	if err := w.Revoke(d1.ID(), e.id("Maria").ID()); err == nil {
		t.Fatal("non-issuer revocation accepted")
	}
	if _, err := w.QueryDirect(Query{
		Subject: e.subject("Maria"), Object: e.role("BigISP.member'"),
	}); err == nil {
		t.Fatal("expected no proof")
	}

	s := reg.Snapshot()
	if got := s.Counters["drbac_wallet_publish_errors_total"]; got != 1 {
		t.Errorf("publish errors = %d, want 1", got)
	}
	if got := s.Counters["drbac_wallet_revoke_errors_total"]; got != 1 {
		t.Errorf("revoke errors = %d, want 1", got)
	}
	if got := s.Counters["drbac_wallet_query_noproof_total"]; got != 1 {
		t.Errorf("noproof queries = %d, want 1", got)
	}
}

// TestWalletQueryLogsTrace checks the wallet's debug record for a query
// carries the caller's trace ID — the local end of cross-wallet tracing.
func TestWalletQueryLogsTrace(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf, slog.LevelDebug, true)
	w := e.wallet(Config{Obs: obs.New(logger, nil)})
	e.publishTable1(w)

	q := Query{
		Subject: e.subject("Maria"),
		Object:  e.role("BigISP.member"),
		TraceID: "cafe0123beef4567",
	}
	if _, err := w.QueryDirect(q); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec["msg"] == "wallet query" && rec["trace"] == q.TraceID {
			found = true
			if rec["found"] != true {
				t.Errorf("query record reports found=%v", rec["found"])
			}
		}
	}
	if !found {
		t.Fatalf("no wallet query record with trace %s in logs:\n%s", q.TraceID, buf.String())
	}
}

// TestUninstrumentedWalletStaysQuiet ensures a wallet without Obs works and
// registers nothing anywhere.
func TestUninstrumentedWalletStaysQuiet(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := e.wallet(Config{})
	e.publishTable1(w)
	if _, err := w.QueryDirect(Query{
		Subject: e.subject("Maria"), Object: e.role("BigISP.member"),
	}); err != nil {
		t.Fatal(err)
	}
	if w.Obs() != nil {
		t.Fatal("uninstrumented wallet reports an Obs")
	}
}

// failingStore is a journal whose deletes and revocations fail the way a log
// store's do once its disk is gone: nothing is recorded, and the error says
// so. Puts still reach the journal beneath.
type failingStore struct{ *journal }

var errDisk = errors.New("disk on fire")

func (failingStore) DeleteDelegation(uint64, core.DelegationID) error { return errDisk }

func (failingStore) AddRevocation(uint64, core.DelegationID, time.Time) (bool, error) {
	return true, errDisk
}

// TestStoreErrorsAreCountedNotDropped covers the mutations that cannot
// return a journal error to anyone — the expiry sweep, replicated drops,
// accepted revocations (the staleness sweep writes nothing that could fail:
// a cached copy is not journaled). Each must count and log the failure and
// still reach the safe in-memory outcome: credential out of the graph,
// subscribers notified — and a revocation in force at once, for good, with
// a second one changing nothing.
func TestStoreErrorsAreCountedNotDropped(t *testing.T) {
	for _, tc := range []struct {
		op   string
		kind subs.EventKind
		// arrange stores d in w; act removes it through the path under test.
		arrange func(e *env, w *Wallet, d *core.Delegation) error
		act     func(e *env, w *Wallet, d *core.Delegation)
		text    string
	}{
		{
			op: "expire", kind: subs.Expired,
			text:    "[Maria -> BigISP.member] BigISP <expiry:2026-07-06T12:30:00Z>",
			arrange: func(_ *env, w *Wallet, d *core.Delegation) error { return w.Publish(d) },
			act:     func(e *env, w *Wallet, _ *core.Delegation) { e.clk.Advance(time.Hour); w.SweepExpired() },
		},
		{
			op: "drop-replicated", kind: subs.Expired,
			text:    "[Maria -> BigISP.member] BigISP",
			arrange: func(_ *env, w *Wallet, d *core.Delegation) error { return w.Publish(d) },
			act:     func(_ *env, w *Wallet, d *core.Delegation) { w.DropReplicated(d.ID(), subs.Expired) },
		},
		{
			op: "accept-revocation", kind: subs.Revoked,
			text:    "[Maria -> BigISP.member] BigISP",
			arrange: func(_ *env, w *Wallet, d *core.Delegation) error { return w.Publish(d) },
			act:     func(_ *env, w *Wallet, d *core.Delegation) { w.AcceptRevocation(d.ID()) },
		},
	} {
		t.Run(tc.op, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Maria")
			reg := obs.NewRegistry()
			var logs bytes.Buffer
			w := e.wallet(Config{
				Store: failingStore{newJournal()},
				Obs:   obs.New(obs.NewLogger(&logs, slog.LevelWarn, true), reg),
			})
			d := e.deleg(tc.text)
			if err := tc.arrange(e, w, d); err != nil {
				t.Fatal(err)
			}
			var events []subs.EventKind
			w.Subscribe(d.ID(), func(ev subs.Event) { events = append(events, ev.Kind) })
			seq := w.Seq()

			tc.act(e, w, d)

			if got := reg.Snapshot().Counters["drbac_wallet_store_errors_total"]; got != 1 {
				t.Errorf("drbac_wallet_store_errors_total = %d, want 1", got)
			}
			if w.Contains(d.ID()) {
				t.Error("credential still in the graph after its store write failed")
			}
			if len(events) != 1 || events[0] != tc.kind {
				t.Errorf("events = %v, want one %v", events, tc.kind)
			}
			if w.Seq() != seq+1 {
				t.Errorf("seq = %d, want %d", w.Seq(), seq+1)
			}
			if tc.kind == subs.Revoked {
				if !w.IsRevoked(d.ID()) || w.Publish(d) == nil {
					t.Error("revoked credential re-admitted after the failed write")
				}
				w.AcceptRevocation(d.ID())
				if got := reg.Snapshot().Counters["drbac_wallet_store_errors_total"]; got != 1 || w.Seq() != seq+1 || len(events) != 1 {
					t.Errorf("second revocation: store errors %d, seq %d, events %v; want no change", got, w.Seq(), events)
				}
			}
			for _, want := range []string{`"op":"` + tc.op + `"`, d.ID().Short(), errDisk.Error()} {
				if !strings.Contains(logs.String(), want) {
					t.Errorf("warn log lacks %s:\n%s", want, logs.String())
				}
			}
		})
	}
}
