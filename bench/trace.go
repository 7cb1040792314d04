package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drbac"
)

// The traced run records point events at the four interface seams the
// program already exposes — Dialer/Conn, Listener/Conn, WalletService and
// WalletStore — and turns them into spans afterwards. It relies on the
// traced run's shape: one client, one request in flight, so events of one
// operation are contiguous and correlate by order alone. No file outside
// bench/ is instrumented.

type evKind uint8

const (
	evOpStart    evKind = iota // the client loop is about to call into drbac
	evOpEnd                    // the call returned
	evClientSend               // client Conn.Send entered
	evClientRecv               // client Conn.Recv returned a frame
	evServerRecv               // server Conn.Recv returned a frame
	evServerSend               // server Conn.Send entered
	evSvcEnter                 // a WalletService method was entered
	evSvcExit                  // ... and returned
	evStoreEnter               // a WalletStore write was entered
	evStoreExit                // ... and returned
)

type event struct {
	at    int64 // ns since the recorder's epoch
	op    int64
	kind  evKind
	label string // op kind for evOpStart
}

// recorder collects events in memory; nothing is written until the run is
// over. It also keeps the seam counters (frames, bytes, dials), which are
// counted whether or not event recording is switched on.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	op    atomic.Int64

	mu     sync.Mutex
	events []event

	frames atomic.Int64
	bytes  atomic.Int64
	dials  atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) mark(kind evKind, label string) {
	if !r.on.Load() {
		return
	}
	at := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.events = append(r.events, event{at: at, op: r.op.Load(), kind: kind, label: label})
	r.mu.Unlock()
}

// begin and end bracket one client operation. They are nil-safe so the
// untraced client loop can call them unconditionally.
func (r *recorder) begin(kind string) {
	if r == nil || !r.on.Load() {
		return
	}
	r.op.Add(1)
	r.mark(evOpStart, kind)
}

func (r *recorder) end() {
	if r != nil {
		r.mark(evOpEnd, "")
	}
}

// ---- seam 1 and 2: Dialer/Conn and Listener/Conn ----

type tracedConn struct {
	drbac.Conn
	rec        *recorder
	send, recv evKind
}

func (c *tracedConn) Send(p []byte) error {
	c.rec.frames.Add(1)
	c.rec.bytes.Add(int64(len(p)))
	c.rec.mark(c.send, "")
	return c.Conn.Send(p)
}

func (c *tracedConn) Recv() ([]byte, error) {
	p, err := c.Conn.Recv()
	if err == nil {
		c.rec.mark(c.recv, "")
	}
	return p, err
}

type tracedDialer struct {
	inner drbac.Dialer
	rec   *recorder
}

func (d *tracedDialer) Dial(ctx context.Context, addr string) (drbac.Conn, error) {
	d.rec.dials.Add(1)
	c, err := d.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: d.rec, send: evClientSend, recv: evClientRecv}, nil
}

type tracedListener struct {
	drbac.Listener
	rec *recorder
}

func (l *tracedListener) Accept() (drbac.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, send: evServerSend, recv: evServerRecv}, nil
}

// ---- seam 3: WalletService ----

// tracedService embeds the real service, so methods the benchmark has no
// span for (Subscribe, Stats, ...) pass straight through.
type tracedService struct {
	drbac.WalletService
	rec *recorder
}

func (s *tracedService) QueryDirect(q drbac.Query) (*drbac.Proof, error) {
	s.rec.mark(evSvcEnter, "QueryDirect")
	defer s.rec.mark(evSvcExit, "")
	return s.WalletService.QueryDirect(q)
}

func (s *tracedService) QuerySubject(sub drbac.Subject, cs []drbac.Constraint) []*drbac.Proof {
	s.rec.mark(evSvcEnter, "QuerySubject")
	defer s.rec.mark(evSvcExit, "")
	return s.WalletService.QuerySubject(sub, cs)
}

func (s *tracedService) QueryObject(obj drbac.Role, cs []drbac.Constraint) []*drbac.Proof {
	s.rec.mark(evSvcEnter, "QueryObject")
	defer s.rec.mark(evSvcExit, "")
	return s.WalletService.QueryObject(obj, cs)
}

func (s *tracedService) Publish(d *drbac.Delegation, support ...*drbac.Proof) error {
	s.rec.mark(evSvcEnter, "Publish")
	defer s.rec.mark(evSvcExit, "")
	return s.WalletService.Publish(d, support...)
}

func (s *tracedService) Revoke(id drbac.DelegationID, by drbac.EntityID) error {
	s.rec.mark(evSvcEnter, "Revoke")
	defer s.rec.mark(evSvcExit, "")
	return s.WalletService.Revoke(id, by)
}

// ---- seam 4: WalletStore ----

type tracedStore struct {
	drbac.WalletStore
	rec *recorder
}

func (s *tracedStore) PutDelegation(seq uint64, d *drbac.Delegation, support []*drbac.Proof) error {
	s.rec.mark(evStoreEnter, "")
	defer s.rec.mark(evStoreExit, "")
	return s.WalletStore.PutDelegation(seq, d, support)
}

func (s *tracedStore) DeleteDelegation(seq uint64, id drbac.DelegationID) error {
	s.rec.mark(evStoreEnter, "")
	defer s.rec.mark(evStoreExit, "")
	return s.WalletStore.DeleteDelegation(seq, id)
}

func (s *tracedStore) AddRevocation(seq uint64, id drbac.DelegationID, at time.Time) (bool, error) {
	s.rec.mark(evStoreEnter, "")
	defer s.rec.mark(evStoreExit, "")
	return s.WalletStore.AddRevocation(seq, id, at)
}

// ---- events → spans ----

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch; Parent is a span ID, 0 for an operation's
// root; spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. The root is named after the operation kind ("op:query", ...).
const (
	spClientSend = "remote.client_send"
	spClientRecv = "remote.client_recv"
	spRPC        = "rpc"
	spC2S        = "transport.c2s"
	spS2C        = "transport.s2c"
	spServer     = "remote.server"
	spDispatch   = "remote.server_dispatch"
	spReply      = "remote.server_reply"
	spService    = "wallet.service"
	spStore      = "store.commit"
	spPush       = "subs.push"
)

// buildSpans groups events by operation and derives the span tree of each:
//
//	op
//	├ remote.client_send        call start → client Send          (single-RPC ops only)
//	├ rpc                       client Send → reply's client Recv (one per request)
//	│ ├ transport.c2s           client Send → server Recv
//	│ ├ remote.server           server Recv → reply's server Send
//	│ │ ├ remote.server_dispatch  server Recv → service method entered
//	│ │ ├ wallet.service          the service method
//	│ │ │ ├ store.commit            each store write
//	│ │ │ └ subs.push               last store write (or entry) → a frame
//	│ │ │                           sent from inside the method: a notify push
//	│ │ └ remote.server_reply     service method returned → reply's server Send
//	│ └ transport.s2c           reply's server Send → client Recv
//	└ remote.client_recv        reply's client Recv → call return (single-RPC ops only)
//
// An operation with several requests (a discovery) gets one rpc subtree per
// request and no client_send/client_recv: what happens between its requests
// is the operation's own self time. Requests that reach no service method
// (subscribe, ping) get no dispatch/service/reply children, leaving the time
// as remote.server self time. Operations missing their end event are dropped.
func buildSpans(events []event) []span {
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	byOp := make(map[int64][]event)
	var order []int64
	for _, e := range events {
		if e.op == 0 {
			continue
		}
		if _, ok := byOp[e.op]; !ok {
			order = append(order, e.op)
		}
		byOp[e.op] = append(byOp[e.op], e)
	}
	var spans []span
	add := func(parent int, op int64, name string, start, end int64) int {
		if end < start {
			end = start
		}
		spans = append(spans, span{ID: len(spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
		return len(spans)
	}
	for _, op := range order {
		evs := byOp[op]
		end := -1
		for i, e := range evs {
			if e.kind == evOpEnd {
				end = i
			}
		}
		if evs[0].kind != evOpStart || end < 0 {
			continue
		}
		evs = evs[:end+1] // a push may still trickle in after the call returned
		t0, t7 := evs[0].at, evs[len(evs)-1].at
		root := add(0, op, "op:"+evs[0].label, t0, t7)
		// Cut the operation into requests at each client Send.
		var cuts []int
		for i, e := range evs {
			if e.kind == evClientSend {
				cuts = append(cuts, i)
			}
		}
		for c, lo := range cuts {
			hi := len(evs) - 1
			if c+1 < len(cuts) {
				hi = cuts[c+1]
			}
			t6 := addRPC(add, root, op, evs[lo:hi])
			if len(cuts) == 1 && t6 >= 0 {
				add(root, op, spClientSend, t0, evs[lo].at)
				add(root, op, spClientRecv, t6, t7)
			}
		}
	}
	return spans
}

// addRPC emits one request's subtree from its events (the first is the
// client Send) and returns when the reply reached the client, or -1 when the
// events do not show a complete round trip.
func addRPC(add func(int, int64, string, int64, int64) int, root int, op int64, evs []event) int64 {
	t1 := evs[0].at
	t2, t6 := int64(-1), int64(-1)
	for _, e := range evs {
		if e.kind == evServerRecv && t2 < 0 {
			t2 = e.at
		}
		if e.kind == evClientRecv {
			t6 = e.at // the last one: pushes sent before the reply arrive before it
		}
	}
	if t2 < 0 || t6 < 0 {
		return -1
	}
	// The reply is the last frame the server sent before the client got it.
	t5 := int64(-1)
	for _, e := range evs {
		if e.kind == evServerSend && e.at <= t6 {
			t5 = e.at
		}
	}
	if t5 < 0 {
		return -1
	}
	rpc := add(root, op, spRPC, t1, t6)
	add(rpc, op, spC2S, t1, t2)
	server := add(rpc, op, spServer, t2, t5)
	add(rpc, op, spS2C, t5, t6)

	t3, t4 := int64(-1), int64(-1)
	for _, e := range evs {
		if e.kind == evSvcEnter && t3 < 0 {
			t3 = e.at
		}
		if e.kind == evSvcExit && e.at <= t5 {
			t4 = e.at
		}
	}
	if t3 < 0 || t4 < 0 {
		return t6
	}
	add(server, op, spDispatch, t2, t3)
	svc := add(server, op, spService, t3, t4)
	add(server, op, spReply, t4, t5)
	pushFrom, storeAt := t3, int64(-1)
	for _, e := range evs {
		switch {
		case e.at < t3 || e.at > t4:
		case e.kind == evStoreEnter:
			storeAt = e.at
		case e.kind == evStoreExit && storeAt >= 0:
			add(svc, op, spStore, storeAt, e.at)
			pushFrom, storeAt = e.at, -1
		case e.kind == evServerSend:
			add(svc, op, spPush, pushFrom, e.at)
			pushFrom = e.at
		}
	}
	return t6
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its children cover. Overlapping children are counted once (the union of
// their intervals), and a child is clipped to its parent.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by span name over the operations of one kind and
// returns the per-operation mean in nanoseconds, plus how many operations
// of that kind there were. The root's self time is reported under "op".
func layerSelf(spans []span, kind string) (map[string]float64, int) {
	self := selfTimes(spans)
	want := make(map[int64]bool)
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op:"+kind {
			want[s.Op] = true
		}
	}
	total := make(map[string]float64)
	for _, s := range spans {
		if !want[s.Op] {
			continue
		}
		name := s.Name
		if s.Parent == 0 {
			name = "op"
			total["op.total"] += float64(s.End - s.Start)
		}
		total[name] += float64(self[s.ID])
	}
	for k := range total {
		total[k] /= float64(len(want))
	}
	return total, len(want)
}

// writeTrace dumps the spans as JSON for offline reading.
func writeTrace(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since recorder start", spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
