package remote

import (
	"bytes"
	"context"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/obs"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

var updateAudit = flag.Bool("update", false, "rewrite testdata/audit/*.golden from the current behaviour")

// fixedGuard is a cluster guard that admits everything under one map, so the
// shard-map request has an answer to audit.
type fixedGuard struct{}

func (fixedGuard) MapResp() (wire.ShardMapResp, error) {
	return wire.ShardMapResp{Epoch: 3, Shard: 1}, nil
}

func (fixedGuard) Check(uint64, *core.Subject) *wire.Redirect { return nil }

// TestGoldenAuditRecords sends every request type, its refusals included, to
// a server logging through the text and the JSON handler, and compares each
// audit "request" record with testdata/audit/<handler>.golden: an operator
// reading the log sees the same bytes whatever builds the record. Times are
// dropped, duration_ms is normalized (and must stay a float), and the
// delegations' random IDs are named by role. Regenerate with
// `go test -run GoldenAuditRecords -update ./internal/remote`.
func TestGoldenAuditRecords(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		t.Run(format, func(t *testing.T) {
			got := auditTranscript(t, format)
			path := filepath.Join("testdata", "audit", format+".golden")
			if *updateAudit {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("audit records differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// auditTranscript serves one wallet with an Info-level logger of the given
// format and returns the audit records of a fixed request sequence, one
// request at a time so the records come out in order.
func auditTranscript(t *testing.T, format string) string {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	buf := &syncBuf{}
	opts := &slog.HandlerOptions{Level: slog.LevelInfo, ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
		switch {
		case a.Key == slog.TimeKey:
			return slog.Attr{}
		case a.Key == "duration_ms" && a.Value.Kind() == slog.KindFloat64:
			return slog.Float64("duration_ms", 0.25)
		}
		return a
	}}
	var h slog.Handler = slog.NewTextHandler(buf, opts)
	if format == "json" {
		h = slog.NewJSONHandler(buf, opts)
	}
	o := obs.New(slog.New(h), obs.NewRegistry())
	o.SetCollector(obs.NewCollector(nil, obs.CollectorConfig{SampleRate: 1}))
	w := wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir})
	ln, err := e.net.Listen("wallet.audit", e.id("BigISP"))
	if err != nil {
		t.Fatal(err)
	}
	s := ServeOptions(w, ln, Options{Obs: o, Cluster: fixedGuard{}})
	t.Cleanup(s.Close)

	member := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	cached := e.deleg("[Maria -> BigISP.guest] BigISP")
	names := strings.NewReplacer(
		string(member.ID().Short()), "<member>",
		string(cached.ID().Short()), "<cached>",
	)
	maria := e.dial("wallet.audit", "Maria")
	bigisp := e.dial("wallet.audit", "BigISP")
	ctx := context.Background()
	const trace = "00000000feedface"
	mark, services := e.subject("Mark"), e.role("BigISP.memberServices")
	query := wire.QueryReq{Subject: mark, Object: services, TraceID: trace, SpanID: "0000beef"}
	expand := query
	expand.Direction = graph.Forward
	miss := wire.QueryReq{Subject: e.subject("Maria"), Object: services}

	requests := []struct {
		c    *Client
		t    wire.MsgType
		body any
	}{
		{maria, wire.TPing, nil},
		{maria, wire.TPublish, wire.PublishReq{Delegation: member}},
		{maria, wire.TPublish, wire.PublishReq{Delegation: cached, TTLSeconds: 60}},
		{maria, wire.TPublish, wire.PublishReq{Delegation: cached, TTLSeconds: -1}},
		{maria, wire.TQueryDirect, query},
		{maria, wire.TQueryDirect, miss},
		{maria, wire.TQuerySubject, wire.QueryReq{Subject: mark, TraceID: trace}},
		{maria, wire.TQueryObject, wire.QueryReq{Object: services}},
		{maria, wire.TQueryExpand, expand},
		{maria, wire.TQueryExpand, wire.QueryReq{Subject: miss.Subject, Object: services, Direction: graph.Reverse, TraceID: trace}},
		{maria, wire.TQueryExpand, wire.QueryReq{Subject: mark, Object: services, Direction: 7}},
		{maria, wire.THas, wire.HasReq{Delegation: member.ID()}},
		{maria, wire.TSubscribe, wire.SubscribeReq{Delegation: member.ID()}},
		{maria, wire.TUnsubscribe, wire.SubscribeReq{Delegation: member.ID()}},
		{maria, wire.TProveRole, wire.ProveRoleReq{Role: services}},
		{maria, wire.TStats, nil},
		{maria, wire.TSync, nil},
		{maria, wire.TSubscribeAll, nil},
		{maria, wire.TTrace, wire.TraceReq{TraceID: trace}},
		{maria, wire.TShardMap, nil},
		{maria, wire.TRevoke, wire.RevokeReq{Delegation: member.ID()}},
		{bigisp, wire.TRevoke, wire.RevokeReq{Delegation: member.ID()}},
		{maria, wire.TSubscribe, wire.SubscribeReq{Delegation: member.ID()}},
		{maria, "future-msg", nil},
	}
	for i, r := range requests {
		_ = r.c.call(ctx, r.t, r.body, nil)
		// The record is written after the reply is sent: wait for it.
		for deadline := time.Now().Add(5 * time.Second); auditRecords(buf.Bytes()) < i+1; {
			if time.Now().After(deadline) {
				t.Fatalf("no audit record for request %d (%s):\n%s", i, r.t, buf.Bytes())
			}
			time.Sleep(time.Millisecond)
		}
	}
	var out strings.Builder
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if isAuditRecord(line) {
			out.WriteString(names.Replace(string(line)))
		}
	}
	return out.String()
}

func isAuditRecord(line []byte) bool {
	return bytes.Contains(line, []byte(`msg=request `)) || bytes.Contains(line, []byte(`"msg":"request"`))
}

func auditRecords(log []byte) int {
	n := 0
	for _, line := range bytes.SplitAfter(log, []byte("\n")) {
		if isAuditRecord(line) {
			n++
		}
	}
	return n
}

// The trace request reads a served query's span attributes as they were
// passed, rendered to text: the ends the query named and what End reported.
func TestTraceRPCReadsRenderedAttrs(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	o := obs.New(nil, nil)
	col := obs.NewCollector(nil, obs.CollectorConfig{SampleRate: 1})
	o.SetCollector(col)
	w := wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir})
	if err := w.Publish(e.deleg("[Mark -> BigISP.memberServices] BigISP")); err != nil {
		t.Fatal(err)
	}
	ln, err := e.net.Listen("wallet.traced", e.id("BigISP"))
	if err != nil {
		t.Fatal(err)
	}
	s := ServeOptions(w, ln, Options{Obs: o})
	t.Cleanup(s.Close)
	c := e.dial("wallet.traced", "Maria")
	const trace = "00000000feedface"
	mark, services := e.subject("Mark"), e.role("BigISP.memberServices")
	ctx := obs.ContextWithTrace(context.Background(), obs.TraceContext{TraceID: trace, SpanID: "0000beef"})
	if _, err := c.QueryExpand(ctx, mark, services, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryObject(ctx, services, nil); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{
		"serve:query-expand": {"subject": mark.String(), "object": services.String(), "found": "true", "results": "1"},
		"serve:query-object": {"object": services.String(), "results": "1"},
	}
	// Each span ends before its reply is sent; the trace finalizes with it.
	var resp wire.TraceResp
	for deadline := time.Now().Add(5 * time.Second); len(resp.Spans) < len(want); {
		if time.Now().After(deadline) {
			t.Fatalf("trace %s holds %d spans, want %d", trace, len(resp.Spans), len(want))
		}
		if resp, err = c.Trace(context.Background(), trace); err != nil {
			t.Fatal(err)
		}
	}
	local := col.Spans(trace)
	for i, sp := range resp.Spans {
		if !reflect.DeepEqual(sp.Attrs, want[sp.Name]) {
			t.Errorf("%s attrs over the trace request = %v, want %v", sp.Name, sp.Attrs, want[sp.Name])
		}
		if !reflect.DeepEqual(sp.Attrs, local[i].Attrs) {
			t.Errorf("%s attrs over the trace request = %v, in the collector %v", sp.Name, sp.Attrs, local[i].Attrs)
		}
	}
}
