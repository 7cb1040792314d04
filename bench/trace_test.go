package main

import (
	"context"
	"errors"
	"testing"

	"drbac"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		// Overlapping children: [10,40] ∪ [30,60] covers 50, not 60.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child sticking out of its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A zero-length span has no self time and covers nothing.
		{ID: 5, Parent: 2, Name: "zero", Start: 20, End: 20},
		// A child fully inside another child of the same parent adds nothing.
		{ID: 6, Parent: 1, Name: "inside", Start: 35, End: 38},
		// A span with no children keeps its whole duration.
		{ID: 7, Parent: 3, Name: "leaf", Start: 31, End: 41},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30, 3: 30 - 10, 4: 30, 5: 0, 6: 3, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

// events builds a recorder's event list from (at, kind[, label]) triples of
// one operation.
func events(op int64, in ...any) []event {
	var out []event
	for i := 0; i < len(in); {
		e := event{at: int64(in[i].(int)), kind: in[i+1].(evKind), op: op}
		i += 2
		if i < len(in) {
			if s, ok := in[i].(string); ok {
				e.label = s
				i++
			}
		}
		out = append(out, e)
	}
	return out
}

func byName(spans []span, op int64) map[string][]span {
	out := make(map[string][]span)
	for _, s := range spans {
		if s.Op == op {
			out[s.Name] = append(out[s.Name], s)
		}
	}
	return out
}

func TestBuildSpansSingleRequest(t *testing.T) {
	evs := events(1,
		0, evOpStart, "query",
		5, evClientSend,
		20, evServerRecv,
		30, evSvcEnter, "QueryDirect",
		70, evSvcExit,
		75, evServerSend,
		90, evClientRecv,
		100, evOpEnd,
	)
	got := byName(buildSpans(evs), 1)
	for name, want := range map[string][2]int64{
		"op:query": {0, 100}, spClientSend: {0, 5}, spRPC: {5, 90}, spC2S: {5, 20},
		spServer: {20, 75}, spDispatch: {20, 30}, spService: {30, 70}, spReply: {70, 75},
		spS2C: {75, 90}, spClientRecv: {90, 100},
	} {
		if len(got[name]) != 1 || got[name][0].Start != want[0] || got[name][0].End != want[1] {
			t.Errorf("%s: got %+v, want one span [%d,%d]", name, got[name], want[0], want[1])
		}
	}
	layer, n := layerSelf(buildSpans(evs), "query")
	if n != 1 || layer["op.total"] != 100 {
		t.Fatalf("layerSelf: n=%d total=%v", n, layer["op.total"])
	}
	var sum float64
	for k, v := range layer {
		if k != "op.total" {
			sum += v
		}
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the operation's 100", sum)
	}
	if layer["op"] != 0 || layer[spRPC] != 0 || layer[spServer] != 0 {
		t.Errorf("fully covered spans should have no self time: %v", layer)
	}
}

func TestBuildSpansRevokeWithPush(t *testing.T) {
	// Revoke: two store writes, then the notify frame goes out from inside
	// the service method, then the reply. The client sees push, then reply.
	evs := events(3,
		0, evOpStart, "revoke",
		2, evClientSend,
		10, evServerRecv,
		12, evSvcEnter, "Revoke",
		13, evStoreEnter, 40, evStoreExit,
		41, evStoreEnter, 60, evStoreExit,
		66, evServerSend, // the push
		70, evSvcExit,
		72, evServerSend, // the reply
		80, evClientRecv, // push arrives
		85, evClientRecv, // reply arrives
		90, evOpEnd,
		95, evClientRecv, // something trickling in after the call returned
	)
	spans := buildSpans(evs)
	got := byName(spans, 3)
	if len(got[spStore]) != 2 {
		t.Fatalf("store.commit spans: %+v", got[spStore])
	}
	if p := got[spPush]; len(p) != 1 || p[0].Start != 60 || p[0].End != 66 {
		t.Errorf("subs.push: got %+v, want [60,66]", p)
	}
	if r := got[spReply]; len(r) != 1 || r[0].Start != 70 || r[0].End != 72 {
		t.Errorf("server_reply: got %+v, want [70,72]", r)
	}
	if r := got[spS2C]; len(r) != 1 || r[0].Start != 72 || r[0].End != 85 {
		t.Errorf("s2c: got %+v, want [72,85]", r)
	}
	layer, _ := layerSelf(spans, "revoke")
	if want := float64(58 - 27 - 19 - 6); layer[spService] != want {
		t.Errorf("wallet.service self time %v, want %v (method minus store writes and push)", layer[spService], want)
	}
}

func TestBuildSpansMultiRequestAndGaps(t *testing.T) {
	// A discovery: two requests; the second reaches no service method
	// (missing child); the time between them is the operation's own.
	evs := events(9,
		0, evOpStart, "discover",
		10, evClientSend, 15, evServerRecv, 16, evSvcEnter, "QuerySubject", 20, evSvcExit, 21, evServerSend, 30, evClientRecv,
		50, evClientSend, 55, evServerRecv, 60, evServerSend, 70, evClientRecv,
		100, evOpEnd,
	)
	// An operation that never ended is dropped whole.
	evs = append(evs, events(10, 200, evOpStart, "discover", 210, evClientSend)...)
	spans := buildSpans(evs)
	got := byName(spans, 9)
	if len(got[spRPC]) != 2 || len(got[spService]) != 1 || len(got[spClientSend]) != 0 {
		t.Fatalf("spans: rpc=%d service=%d client_send=%d", len(got[spRPC]), len(got[spService]), len(got[spClientSend]))
	}
	if len(byName(spans, 10)) != 0 {
		t.Error("unfinished operation should produce no spans")
	}
	layer, n := layerSelf(spans, "discover")
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	if want := float64(100 - 20 - 20); layer["op"] != want {
		t.Errorf("operation self time %v, want %v", layer["op"], want)
	}
	if layer[spServer] != 5 {
		t.Errorf("request with no service call: remote.server self time %v, want its whole 5", layer[spServer])
	}
}

// fakeConn is the least Conn the wrappers need.
type fakeConn struct {
	drbac.Conn
	sent [][]byte
	err  error
}

func (c *fakeConn) Send(p []byte) error   { c.sent = append(c.sent, p); return c.err }
func (c *fakeConn) Recv() ([]byte, error) { return []byte("reply"), c.err }
func (c *fakeConn) Close() error          { return nil }
func (c *fakeConn) Codec() string         { return "binary" }

type fakeDialer struct{ conn *fakeConn }

func (d fakeDialer) Dial(context.Context, string) (drbac.Conn, error) { return d.conn, nil }

type fakeListener struct {
	drbac.Listener
	conn *fakeConn
}

func (l fakeListener) Accept() (drbac.Conn, error) { return l.conn, nil }

func TestConnWrappersRecordAndCount(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	inner := &fakeConn{}
	cc, err := (&tracedDialer{inner: fakeDialer{inner}, rec: rec}).Dial(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := (&tracedListener{Listener: fakeListener{conn: inner}, rec: rec}).Accept()
	if err != nil {
		t.Fatal(err)
	}
	rec.begin("query")
	_ = cc.Send([]byte("12345"))
	_, _ = sc.Recv()
	_ = sc.Send([]byte("123"))
	_, _ = cc.Recv()
	rec.end()
	inner.err = errors.New("closed")
	if _, err := cc.Recv(); err == nil {
		t.Fatal("wrapper swallowed the error")
	}
	var kinds []evKind
	for _, e := range rec.events {
		if e.op != 1 {
			t.Errorf("event %+v not filed under operation 1", e)
		}
		kinds = append(kinds, e.kind)
	}
	want := []evKind{evOpStart, evClientSend, evServerRecv, evServerSend, evClientRecv, evOpEnd}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v (a failed Recv records nothing)", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
	if rec.dials.Load() != 1 || rec.frames.Load() != 2 || rec.bytes.Load() != 8 {
		t.Errorf("counters: dials=%d frames=%d bytes=%d", rec.dials.Load(), rec.frames.Load(), rec.bytes.Load())
	}
	if cc.Codec() != "binary" {
		t.Error("wrapper hides the inner connection's methods")
	}

	// Switched off, the wrappers record nothing but still count and forward.
	rec.on.Store(false)
	inner.err = nil
	before := len(rec.events)
	_ = cc.Send([]byte("x"))
	if len(rec.events) != before || rec.frames.Load() != 3 || len(inner.sent) != 3 {
		t.Error("recorder off: want no events, frame still counted and forwarded")
	}
}

// A nil recorder is what the untraced client loop holds.
func TestNilRecorder(t *testing.T) {
	var rec *recorder
	rec.begin("query")
	rec.end()
}

func TestServiceAndStoreWrappers(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	store := &tracedStore{WalletStore: drbac.NewMemStore(), rec: rec}
	w := drbac.NewWallet(drbac.WalletConfig{Store: store})
	svc := &tracedService{WalletService: w, rec: rec}
	world := buildAuthzWorld(1, 300)
	rec.begin("publish")
	if err := svc.Publish(world.bundles[0].d); err != nil {
		t.Fatal(err)
	}
	rec.end()
	var kinds []evKind
	for _, e := range rec.events {
		kinds = append(kinds, e.kind)
	}
	want := []evKind{evOpStart, evSvcEnter, evStoreEnter, evStoreExit, evSvcExit, evOpEnd}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
	if svc.Stats().Delegations != 1 {
		t.Error("pass-through methods should reach the wallet")
	}
}
