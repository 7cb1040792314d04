package discovery

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/wallet"
)

// serveCollected starts a served wallet whose obs bundle retains every
// completed trace (head sampling 1.0), returning the wallet and its
// collector.
func serveCollected(t *testing.T, e *env, addr, ownerName string) (*wallet.Wallet, *obs.Collector) {
	t.Helper()
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	col := obs.NewCollector(reg, obs.CollectorConfig{SampleRate: 1})
	o.SetCollector(col)
	w := wallet.New(wallet.Config{Owner: e.id(ownerName), Clock: e.clk, Directory: e.dir, Obs: o})
	ln, err := e.net.Listen(addr, e.id(ownerName))
	if err != nil {
		t.Fatal(err)
	}
	s := remote.Serve(w, ln)
	t.Cleanup(s.Close)
	return w, col
}

// TestRetainedTraceNestsRemoteHops is the tentpole acceptance test: a
// three-wallet chain discovery yields one retained trace whose span tree
// nests each wallet's serve span under the originating agent's rpc span,
// with the remote halves fetched over the wire `trace` request and merged.
func TestRetainedTraceNestsRemoteHops(t *testing.T) {
	e := newEnv(t, "A", "B", "User", "Server")
	wa, colA := serveCollected(t, e, "wallet.a", "A")
	wb, colB := serveCollected(t, e, "wallet.b", "B")

	tagA := e.tag("wallet.a", core.SubjectSearch, core.ObjectNone)
	tagB := e.tag("wallet.b", core.SubjectSearch, core.ObjectNone)

	parsed, err := core.ParseDelegation("[User -> A.member] A", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.ObjectTag = &tagA
	d1, err := core.Issue(e.id("A"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}

	parsed, err = core.ParseDelegation("[A.member -> B.mid] B", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.SubjectTag = &tagA
	parsed.Template.ObjectTag = &tagB
	d2, err := core.Issue(e.id("B"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := wa.Publish(d2); err != nil {
		t.Fatal(err)
	}

	parsed, err = core.ParseDelegation("[B.mid -> B.guest] B", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.SubjectTag = &tagB
	d3, err := core.Issue(e.id("B"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.Publish(d3); err != nil {
		t.Fatal(err)
	}

	// The originating agent, with its own retaining collector.
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	colLocal := obs.NewCollector(reg, obs.CollectorConfig{SampleRate: 1})
	o.SetCollector(colLocal)
	local := wallet.New(wallet.Config{Owner: e.id("Server"), Clock: e.clk, Directory: e.dir, Obs: o})
	agent := NewAgent(Config{Local: local, Dialer: e.net.Dialer(e.id("Server")), Obs: o})
	t.Cleanup(agent.Close)
	if err := local.Publish(d1); err != nil {
		t.Fatal(err)
	}
	agent.Learn(d1)

	proof, err := agent.Discover(context.Background(), wallet.Query{
		Subject: e.subject("User"),
		Object:  e.role("B.guest"),
	}, Auto, nil)
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if proof.Len() != 3 {
		t.Fatalf("proof length = %d, want 3", proof.Len())
	}

	// Exactly one trace at the originator, rooted in the discovery span.
	traces := colLocal.List(obs.ListFilter{})
	if len(traces) != 1 {
		t.Fatalf("originator retained %d traces, want 1: %+v", len(traces), traces)
	}
	tid := traces[0].ID
	if traces[0].Root != "discover" {
		t.Fatalf("trace root = %q, want discover", traces[0].Root)
	}
	localSpans := colLocal.Spans(tid)
	rpcIDs := make(map[string]bool)
	for _, sp := range localSpans {
		if sp.ParentID != "" && sp.Name != "discover" {
			rpcIDs[sp.SpanID] = true
		}
	}
	if len(rpcIDs) == 0 {
		t.Fatalf("originator trace has no rpc child spans: %+v", localSpans)
	}

	// Each server's half of the trace finalizes after its response is sent;
	// poll the collectors briefly.
	deadline := time.Now().Add(2 * time.Second)
	var spansA, spansB []obs.SpanRecord
	for {
		spansA, spansB = colA.Spans(tid), colB.Spans(tid)
		if (len(spansA) > 0 && len(spansB) > 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name, spans := range map[string][]obs.SpanRecord{"wallet.a": spansA, "wallet.b": spansB} {
		if len(spans) == 0 {
			t.Fatalf("%s retained no spans for trace %s", name, tid)
		}
		for _, sp := range spans {
			if !rpcIDs[sp.ParentID] {
				t.Errorf("%s span %s (%s) has parent %q, not an originator rpc span",
					name, sp.SpanID, sp.Name, sp.ParentID)
			}
		}
	}

	// Fetch the remote halves over the wire `trace` request — what `drbac
	// trace` does — and check the merged tree nests both hops under the
	// originating query span.
	merged := append([]obs.SpanRecord{}, localSpans...)
	for _, addr := range []string{"wallet.a", "wallet.b"} {
		c, err := remote.Dial(context.Background(), e.net.Dialer(e.id("Server")), addr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Trace(context.Background(), tid)
		c.Close()
		if err != nil {
			t.Fatalf("trace rpc to %s: %v", addr, err)
		}
		if !resp.Found {
			t.Fatalf("%s reports trace %s not found", addr, tid)
		}
		merged = append(merged, resp.Spans...)
	}
	tree := obs.BuildSpanTree(merged)
	if len(tree) != 1 || tree[0].Name != "discover" {
		t.Fatalf("merged tree has %d roots (want 1, discover): %+v", len(tree), tree)
	}
	serves := 0
	for _, rpc := range tree[0].Children {
		for _, child := range rpc.Children {
			if child.Name == "serve:query-expand" {
				serves++
			}
		}
	}
	if serves < 2 {
		t.Errorf("merged tree nests %d serve spans under rpc spans, want >= 2", serves)
	}
}

// TestSlowQueryRetainedAtZeroSampling forces a query over the slow
// threshold with head sampling off: the trace must be tail-retained, the
// wallet must emit the warn-level slow-query record, and the query SLO's
// p99 gauge and breach counter must move.
func TestSlowQueryRetainedAtZeroSampling(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Server")
	buf := &syncBuf{}
	reg := obs.NewRegistry()
	o := obs.New(obs.NewLogger(buf, slog.LevelInfo, true), reg)
	// 1ns slow threshold: every real query is "slow"; 0% head sampling:
	// only the tail-sampling rules can retain anything.
	o.SetCollector(obs.NewCollector(reg, obs.CollectorConfig{
		SampleRate:    0,
		SlowThreshold: time.Nanosecond,
	}))
	o.RegisterSLO(obs.NewSLO(reg, "query", time.Nanosecond, 0, 0))
	local := wallet.New(wallet.Config{Owner: e.id("Server"), Clock: e.clk, Directory: e.dir, Obs: o})
	agent := NewAgent(Config{Local: local, Dialer: e.net.Dialer(e.id("Server")), Obs: o})
	t.Cleanup(agent.Close)

	if err := local.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("BigISP.member"),
	}, Auto, nil); err != nil {
		t.Fatalf("discover: %v", err)
	}

	traces := o.TraceCollector().List(obs.ListFilter{})
	if len(traces) == 0 {
		t.Fatal("slow trace not retained at 0% head sampling")
	}
	if !traces[0].Slow {
		t.Errorf("retained trace not marked slow: %+v", traces[0])
	}

	// The wallet's slow-query record: warn level, trace ID, effort attrs.
	var slowLogged bool
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec["msg"] != "slow query" {
			continue
		}
		slowLogged = true
		if rec["level"] != "WARN" {
			t.Errorf("slow query logged at %v, want WARN", rec["level"])
		}
		if id, _ := rec["trace"].(string); id != traces[0].ID {
			t.Errorf("slow query trace = %v, want %s", rec["trace"], traces[0].ID)
		}
		for _, attr := range []string{"duration_ms", "cache", "search_nodes"} {
			if _, ok := rec[attr]; !ok {
				t.Errorf("slow query record missing %q: %v", attr, rec)
			}
		}
	}
	if !slowLogged {
		t.Error("no slow-query record in the log")
	}

	// The SLO observed the breach.
	s := reg.Snapshot()
	if got := s.Counters["drbac_slo_query_total"]; got < 1 {
		t.Errorf("drbac_slo_query_total = %d, want >= 1", got)
	}
	if got := s.Counters["drbac_slo_query_breaches_total"]; got < 1 {
		t.Errorf("drbac_slo_query_breaches_total = %d, want >= 1", got)
	}
	if got := s.Gauges["drbac_slo_query_p99_us"]; got <= 0 {
		t.Errorf("drbac_slo_query_p99_us = %d, want > 0", got)
	}
	if got := s.Gauges["drbac_slo_query_burn_pct"]; got < 100 {
		t.Errorf("drbac_slo_query_burn_pct = %d, want >= 100 with every query breaching", got)
	}
}
