package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"reflect"
	"sync"
	"testing"
	"time"

	"drbac/internal/obs"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, s.b.Len())
	copy(out, s.b.Bytes())
	return out
}

// serveInstrumented starts a served wallet with a metrics registry and a
// debug JSON logger.
func serveInstrumented(e *env, addr, ownerName string) (*wallet.Wallet, *obs.Registry, *syncBuf) {
	e.t.Helper()
	buf := &syncBuf{}
	reg := obs.NewRegistry()
	o := obs.New(obs.NewLogger(buf, slog.LevelDebug, true), reg)
	w := wallet.New(wallet.Config{Owner: e.id(ownerName), Clock: e.clk, Directory: e.dir, Obs: o})
	ln, err := e.net.Listen(addr, e.id(ownerName))
	if err != nil {
		e.t.Fatal(err)
	}
	s := Serve(w, ln)
	e.t.Cleanup(s.Close)
	return w, reg, buf
}

// TestStatsMessage publishes and queries against an instrumented served
// wallet, then fetches the stats snapshot remotely — the wire path behind
// `drbac stats`.
func TestStatsMessage(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	srvW, _, _ := serveInstrumented(e, "wallet.main", "BigISP")
	d := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	if err := srvW.Publish(d); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "wallet.main")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// One remote hit and one remote no-proof, so counters move.
	if _, err := c.QueryDirect(context.Background(), e.subject("Mark"), e.role("BigISP.memberServices"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryDirect(context.Background(), e.subject("Maria"), e.role("BigISP.memberServices"), nil, 0); err == nil {
		t.Fatal("expected no proof")
	}

	// The server meters a request after sending its reply, each on its own
	// goroutine, so either query's counts can trail its answer: fetch until
	// both are in.
	var resp wire.StatsResp
	for deadline := time.Now().Add(5 * time.Second); ; {
		if resp, err = c.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
		m := resp.Metrics
		metered := m.Histograms["drbac_server_request_seconds"].Count >= 2 && m.Counters["drbac_server_noproof_total"] >= 1
		if metered || time.Now().After(deadline) {
			break
		}
	}
	if got := resp.Metrics.Counters["drbac_server_requests_total"]; got < 2 {
		t.Errorf("server requests = %d, want >= 2", got)
	}
	if got := resp.Metrics.Counters["drbac_server_noproof_total"]; got != 1 {
		t.Errorf("server noproof = %d, want 1", got)
	}
	if got := resp.Metrics.Counters["drbac_wallet_query_direct_total"]; got != 2 {
		t.Errorf("wallet direct queries = %d, want 2", got)
	}
	if got := resp.Metrics.Gauges["drbac_wallet_delegations"]; got != 1 {
		t.Errorf("delegations gauge = %d, want 1", got)
	}
	if h := resp.Metrics.Histograms["drbac_server_request_seconds"]; h.Count < 2 {
		t.Errorf("request latency observations = %d, want >= 2", h.Count)
	}
	if len(resp.Metrics.Histograms["drbac_server_request_seconds"].Buckets) == 0 {
		t.Error("histogram buckets lost on the wire")
	}
}

// TestStatsOnUninstrumentedServer checks the stats message still answers
// when the server has no Obs: with the wallet's seq and an empty snapshot.
// There is no summary beside the snapshot, so such a server reports no
// wallet numbers at all.
func TestStatsOnUninstrumentedServer(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	if err := w.Publish(e.deleg("[Mark -> BigISP.memberServices] BigISP")); err != nil {
		t.Fatal(err)
	}
	c := e.dial("wallet.bigisp", "Maria")
	resp, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Seq != w.Seq() {
		t.Errorf("seq = %d, want the wallet's 1", resp.Seq)
	}
	if !reflect.DeepEqual(resp.Metrics, obs.Snapshot{}) {
		t.Errorf("uninstrumented server exported metrics: %+v", resp.Metrics)
	}
}

// TestServerAuditLog checks every request type leaves a structured audit
// record naming the peer and the outcome.
func TestServerAuditLog(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w, _, buf := serveInstrumented(e, "wallet.bigisp", "BigISP")
	if err := w.Publish(e.deleg("[Mark -> BigISP.memberServices] BigISP")); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.QueryDirect(context.Background(), e.subject("Mark"), e.role("BigISP.memberServices"), nil, 0); err != nil {
		t.Fatal(err)
	}

	// The audit record is written after the response is sent; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var got map[string]any
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("bad log line %q: %v", line, err)
			}
			if rec["msg"] == "request" && rec["type"] == "query-direct" {
				got = rec
			}
		}
		if got != nil {
			if got["peer"] != e.id("Maria").ID().Short() {
				t.Errorf("audit peer = %v, want %s", got["peer"], e.id("Maria").ID().Short())
			}
			if got["found"] != true {
				t.Errorf("audit found = %v, want true", got["found"])
			}
			if _, ok := got["duration_ms"]; !ok {
				t.Error("audit record missing duration_ms")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no query-direct audit record in logs:\n%s", buf.Bytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPushMetrics checks notification pushes are counted.
func TestPushMetrics(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w, reg, _ := serveInstrumented(e, "wallet.bigisp", "BigISP")
	d := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	got := make(chan struct{}, 1)
	cancel, err := c.Subscribe(context.Background(), d.ID(), func(subs.Event) { got <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := w.Revoke(d.ID(), e.id("BigISP").ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("push not delivered")
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Counters["drbac_server_pushes_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("push not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A follower that stops reading its changelog stream backs the server's
// 1,024-push queue up until it is full. That is an overflow — the peer is
// there but too slow — so the server closes the connection and counts it
// once as an overflow, and the sends that then fail on the closed
// connection are not push errors, which mean "peer gone".
func TestStreamOverflowIsNotAPushError(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w, reg, _ := serveInstrumented(e, "wallet.bigisp", "BigISP")
	c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// The stalled reader: the stream handler blocks until the test ends, so
	// the client's push queue, the connection and then the server's push
	// queue fill behind it.
	release := make(chan struct{})
	defer close(release)
	if _, _, err := c.SubscribeAll(context.Background(), func(wire.NotifyPush) { <-release }); err != nil {
		t.Fatal(err)
	}

	counter := func(name string) int64 { return reg.Snapshot().Counters[name] }
	publish := func(i int) {
		t.Helper()
		if err := w.Publish(e.deleg(fmt.Sprintf("[Mark -> BigISP.r%d] BigISP", i))); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for ; counter("drbac_server_stream_overflows_total") == 0; i++ {
		if i > 4*pushQueueLen {
			t.Fatalf("no overflow counted after %d publishes to a stalled stream", i)
		}
		publish(i)
	}
	// The server gives the connection up: its teardown runs without the
	// stalled peer reading another byte.
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Gauges["drbac_server_active_connections"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection still open after its push queue overflowed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Pushes raced past the overflow until teardown; none is a second one.
	for end := i + 64; i < end; i++ {
		publish(i)
	}
	if n := counter("drbac_server_stream_overflows_total"); n != 1 {
		t.Fatalf("overflows = %d, want 1: one connection closed once", n)
	}
	if n := counter("drbac_server_push_errors_total"); n != 0 {
		t.Fatalf("push_errors = %d after an overflow; the peer never went away", n)
	}
}

// A TNotify push whose body does not decode must not kill the connection or
// vanish silently: the client counts and logs the drop, and later
// well-formed pushes still reach their subscriber.
func TestMalformedPushCountedNotFatal(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	ln, err := e.net.Listen("fake.wallet", e.id("BigISP"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan transport.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			connCh <- conn
		}
	}()

	c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "fake.wallet")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := &syncBuf{}
	reg := obs.NewRegistry()
	c.Obs = obs.New(obs.NewLogger(buf, slog.LevelDebug, true), reg)
	server := <-connCh
	defer server.Close()

	// Subscribe by hand: answer the client's subscribe request with OK.
	events := make(chan subs.Event, 1)
	subDone := make(chan error, 1)
	go func() {
		frame, err := server.Recv()
		if err != nil {
			subDone <- err
			return
		}
		env, err := codec.Decode(frame)
		if err != nil {
			subDone <- err
			return
		}
		ok, _ := codec.Encode(wire.TOK, env.ID, nil)
		subDone <- server.Send(ok)
	}()
	cancel, err := c.Subscribe(context.Background(), "d-1", func(ev subs.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	// Close the client before canceling: the fake server never answers the
	// unsubscribe call, and cancel on a closed client returns immediately.
	defer cancel()
	defer c.Close()
	if err := <-subDone; err != nil {
		t.Fatal(err)
	}

	good, err := codec.Encode(wire.TNotify, 0, wire.NotifyPush{
		Delegation: "d-1", Kind: "revoked", At: e.clk.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The same push cut short by its last byte (the bundle flag) still
	// frames but cannot decode into NotifyPush.
	if err := server.Send(good[:len(good)-1]); err != nil {
		t.Fatal(err)
	}
	if err := server.Send(good); err != nil {
		t.Fatal(err)
	}

	select {
	case ev := <-events:
		if ev.Delegation != "d-1" {
			t.Fatalf("event for %q, want d-1", ev.Delegation)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("well-formed push after a malformed one never arrived")
	}
	if !c.Healthy() {
		t.Fatal("malformed push killed the connection")
	}
	if n := reg.Snapshot().Counters["drbac_remote_push_decode_errors_total"]; n != 1 {
		t.Fatalf("decode-error counter = %d, want 1", n)
	}
	if !bytes.Contains(buf.Bytes(), []byte("undecodable body")) {
		t.Fatal("malformed push was not logged")
	}
}
