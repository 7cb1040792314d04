package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestCollector(reg *Registry, sample float64, slow time.Duration) (*Obs, *Collector) {
	o := New(nil, reg)
	c := NewCollector(reg, CollectorConfig{SampleRate: sample, SlowThreshold: slow})
	o.SetCollector(c)
	return o, c
}

// TestCollectorRetainsSpanTree runs a root span with nested children and
// checks the retained trace reconstructs the hierarchy.
func TestCollectorRetainsSpanTree(t *testing.T) {
	o, col := newTestCollector(NewRegistry(), 1.0, time.Hour)
	tid := NewTraceID()

	root := o.StartSpan(tid, "discover", "object", "BigISP.member")
	child := root.StartChild("rpc:direct", "wallet", "wallet.a")
	grand := child.StartChild("peer.dial", "addr", "wallet.a")
	grand.End()
	child.Event("remote query", "node", "A.member")
	child.End("found", true)
	root.End()

	rec, ok := col.Get(tid)
	if !ok {
		t.Fatal("trace not retained at sample rate 1.0")
	}
	if rec.Root != "discover" {
		t.Errorf("root = %q, want discover", rec.Root)
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(rec.Spans))
	}
	tree := BuildSpanTree(rec.Spans)
	if len(tree) != 1 || tree[0].Name != "discover" {
		t.Fatalf("tree roots = %+v, want single discover", tree)
	}
	if len(tree[0].Children) != 1 || tree[0].Children[0].Name != "rpc:direct" {
		t.Fatalf("discover children = %+v", tree[0].Children)
	}
	rpc := tree[0].Children[0]
	if len(rpc.Children) != 1 || rpc.Children[0].Name != "peer.dial" {
		t.Fatalf("rpc children = %+v", rpc.Children)
	}
	if rpc.Attrs["wallet"] != "wallet.a" || rpc.Attrs["found"] != "true" {
		t.Errorf("rpc attrs = %v", rpc.Attrs)
	}
	if len(rpc.Events) != 1 || rpc.Events[0].Msg != "remote query" {
		t.Errorf("rpc events = %v", rpc.Events)
	}
}

// TestCollectorTailSampling checks the retention rules: at 0%% head
// sampling ordinary traces are dropped but slow and erring ones are kept.
func TestCollectorTailSampling(t *testing.T) {
	reg := NewRegistry()
	o, col := newTestCollector(reg, 0, 50*time.Millisecond)

	fast := NewTraceID()
	o.StartSpan(fast, "op").End()
	if _, ok := col.Get(fast); ok {
		t.Error("fast clean trace retained at 0% sampling")
	}

	slow := NewTraceID()
	sp := o.StartSpan(slow, "op")
	sp.start = sp.start.Add(-time.Second) // backdate instead of sleeping
	sp.End()
	rec, ok := col.Get(slow)
	if !ok {
		t.Fatal("slow trace not retained")
	}
	if !rec.Slow {
		t.Error("slow trace not marked slow")
	}

	erred := NewTraceID()
	sp = o.StartSpan(erred, "op")
	sp.Fail(errTest)
	sp.End()
	rec, ok = col.Get(erred)
	if !ok {
		t.Fatal("erred trace not retained")
	}
	if rec.Err != "test failure" {
		t.Errorf("trace err = %q", rec.Err)
	}

	s := reg.Snapshot()
	if got := s.Counters["drbac_trace_completed_total"]; got != 3 {
		t.Errorf("completed = %d, want 3", got)
	}
	if got := s.Counters["drbac_trace_retained_total"]; got != 2 {
		t.Errorf("retained = %d, want 2", got)
	}
	if got := s.Counters["drbac_trace_sampled_out_total"]; got != 1 {
		t.Errorf("sampled out = %d, want 1", got)
	}
	if got := s.Counters["drbac_trace_slow_total"]; got != 1 {
		t.Errorf("slow = %d, want 1", got)
	}
	if got := s.Counters["drbac_trace_error_total"]; got != 1 {
		t.Errorf("error = %d, want 1", got)
	}
}

type testErr struct{}

func (testErr) Error() string { return "test failure" }

var errTest = testErr{}

// TestCollectorMergesSequentialRoots checks that a wallet serving several
// requests for one trace merges them into one retained record.
func TestCollectorMergesSequentialRoots(t *testing.T) {
	o, col := newTestCollector(NewRegistry(), 1.0, time.Hour)
	tid := NewTraceID()
	o.StartServerSpan(tid, "aaaa0001", "serve:query-direct", "subject", "Maria").End()
	o.StartServerSpan(tid, "aaaa0002", "serve:query-subject").End()
	rec, ok := col.Get(tid)
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 (merged)", len(rec.Spans))
	}
	for _, sp := range rec.Spans {
		if sp.ParentID == "" {
			t.Errorf("server span %q lost its remote parent", sp.Name)
		}
	}
}

// TestCollectorConcurrentRoots checks a trace with overlapping root spans
// finalizes only after the last root ends.
func TestCollectorConcurrentRoots(t *testing.T) {
	o, col := newTestCollector(NewRegistry(), 1.0, time.Hour)
	tid := NewTraceID()
	a := o.StartSpan(tid, "a")
	b := o.StartSpan(tid, "b")
	a.End()
	if _, ok := col.Get(tid); ok {
		t.Fatal("trace finalized while a root is still open")
	}
	b.End()
	if _, ok := col.Get(tid); !ok {
		t.Fatal("trace not finalized after last root ended")
	}
}

// TestCollectorRingEviction fills the ring past capacity and checks the
// oldest trace is evicted.
func TestCollectorRingEviction(t *testing.T) {
	reg := NewRegistry()
	o := New(nil, reg)
	col := NewCollector(reg, CollectorConfig{Capacity: 2, SampleRate: 1.0, SlowThreshold: time.Hour})
	o.SetCollector(col)
	ids := []string{NewTraceID(), NewTraceID(), NewTraceID()}
	for _, id := range ids {
		o.StartSpan(id, "op").End()
	}
	if _, ok := col.Get(ids[0]); ok {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range ids[1:] {
		if _, ok := col.Get(id); !ok {
			t.Errorf("trace %s evicted early", id)
		}
	}
	if got := len(col.List(ListFilter{})); got != 2 {
		t.Errorf("list length = %d, want 2", got)
	}
}

// TestCollectorListFilters exercises the list-view filters.
func TestCollectorListFilters(t *testing.T) {
	o, col := newTestCollector(NewRegistry(), 1.0, 50*time.Millisecond)
	o.StartSpan(NewTraceID(), "fast").End()
	sp := o.StartSpan(NewTraceID(), "slowop")
	sp.start = sp.start.Add(-time.Second)
	sp.End()
	sp = o.StartSpan(NewTraceID(), "bad")
	sp.Fail(errTest)
	sp.End()

	if got := len(col.List(ListFilter{})); got != 3 {
		t.Fatalf("unfiltered = %d, want 3", got)
	}
	if l := col.List(ListFilter{OnlySlow: true}); len(l) != 1 || l[0].Root != "slowop" {
		t.Errorf("slow filter = %+v", l)
	}
	if l := col.List(ListFilter{OnlyErr: true}); len(l) != 1 || l[0].Root != "bad" {
		t.Errorf("err filter = %+v", l)
	}
	if l := col.List(ListFilter{Root: "fast"}); len(l) != 1 {
		t.Errorf("root filter = %+v", l)
	}
	if l := col.List(ListFilter{MinDur: 500 * time.Millisecond}); len(l) != 1 || l[0].Root != "slowop" {
		t.Errorf("min-dur filter = %+v", l)
	}
	if l := col.List(ListFilter{Limit: 1}); len(l) != 1 {
		t.Errorf("limit = %d, want 1", len(l))
	}
}

// TestTracesHandler drives the /debug/traces HTTP surface.
func TestTracesHandler(t *testing.T) {
	o, col := newTestCollector(NewRegistry(), 1.0, time.Hour)
	tid := NewTraceID()
	root := o.StartSpan(tid, "discover")
	root.StartChild("rpc:direct").End()
	root.End()

	srv := httptest.NewServer(TracesHandler(col))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Traces) != 1 || list.Traces[0].ID != tid || list.Traces[0].Spans != 2 {
		t.Fatalf("list = %+v", list.Traces)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	var tree struct {
		ID    string      `json:"id"`
		Spans []*SpanNode `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tree.ID != tid || len(tree.Spans) != 1 || len(tree.Spans[0].Children) != 1 {
		t.Fatalf("tree = %+v", tree)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/traces/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
}

// TestHeadSampledDeterministic checks the sampling decision is a pure
// function of the trace ID.
func TestHeadSampledDeterministic(t *testing.T) {
	id := NewTraceID()
	for i := 0; i < 10; i++ {
		if headSampled(id, 0.5) != headSampled(id, 0.5) {
			t.Fatal("sampling decision not deterministic")
		}
	}
	if !headSampled(id, 1.0) {
		t.Error("rate 1.0 must sample everything")
	}
	if headSampled(id, 0) {
		t.Error("rate 0 must sample nothing")
	}
	kept := 0
	for i := 0; i < 1000; i++ {
		if headSampled(NewTraceID(), 0.5) {
			kept++
		}
	}
	if kept < 350 || kept > 650 {
		t.Errorf("rate 0.5 kept %d/1000, far from half", kept)
	}
}

// TestNewSpanID sanity-checks span ID shape and uniqueness.
func TestNewSpanID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewSpanID()
		if len(id) != 8 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("bad span id %q", id)
		}
		seen[id] = true
	}
	if len(seen) < 99 {
		t.Errorf("span ids not unique enough: %d/100", len(seen))
	}
}

// TestSpanContextPropagation checks Context/ContextWithSpan round-trips
// and the nil-span behavior.
func TestSpanContextPropagation(t *testing.T) {
	o, _ := newTestCollector(NewRegistry(), 1.0, time.Hour)
	sp := o.StartSpan(NewTraceID(), "op")
	tc := sp.Context()
	if tc.TraceID != sp.TraceID() || tc.SpanID != sp.ID() {
		t.Errorf("context = %+v, span = %s/%s", tc, sp.TraceID(), sp.ID())
	}
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Error("span did not round-trip through context")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Error("empty context yielded a span")
	}
	var nilSpan *Span
	if tc := nilSpan.Context(); tc != (TraceContext{}) {
		t.Errorf("nil span context = %+v", tc)
	}
	if child := nilSpan.StartChild("x"); child != nil {
		t.Error("nil span spawned a child")
	}

	// TraceFromContext is what a remote call stamps on its request: the
	// active span's position, unless the caller named a bare one — which
	// wins even over a span set later, and costs an untraced call nothing.
	if got := TraceFromContext(ctx); got != tc {
		t.Errorf("position from a span context = %+v, want %+v", got, tc)
	}
	bare := TraceContext{TraceID: "feedface"}
	if got := TraceFromContext(ContextWithSpan(ContextWithTrace(ctx, bare), sp)); got != bare {
		t.Errorf("position = %+v, want the explicit %+v", got, bare)
	}
	if ContextWithTrace(ctx, TraceContext{}) != ctx {
		t.Error("a zero TraceContext wrapped the context")
	}
	background := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if TraceFromContext(background) != (TraceContext{}) {
			t.Error("empty context yielded a trace position")
		}
	}); n != 0 {
		t.Errorf("TraceFromContext on an untraced context allocates %v times", n)
	}
	sp.End()
}
