package remote

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// listenDial abstracts the two transports the hot-path tests run over.
type listenDial struct {
	name   string
	listen func(e *env, owner string) transport.Listener
	dialer func(e *env, client string) transport.Dialer
}

var bothTransports = []listenDial{
	{
		name: "tcp",
		listen: func(e *env, owner string) transport.Listener {
			ln, err := transport.ListenTCP("127.0.0.1:0", e.id(owner))
			if err != nil {
				e.t.Fatal(err)
			}
			return ln
		},
		dialer: func(e *env, client string) transport.Dialer {
			return &transport.TCPDialer{Identity: e.id(client)}
		},
	},
	{
		name: "mem",
		listen: func(e *env, owner string) transport.Listener {
			ln, err := e.net.Listen("wallet.hot", e.id(owner))
			if err != nil {
				e.t.Fatal(err)
			}
			return ln
		},
		dialer: func(e *env, client string) transport.Dialer { return e.net.Dialer(e.id(client)) },
	},
}

// TestFrameAliasing pins the invariant the frame recycling rests on:
// DecodeBody copies everything it keeps, so a value handed to a caller never
// aliases a frame that has since gone back to bufpool. Several goroutines
// share one client, a changelog subscription on the same connection keeps
// notify frames (with full bundles) interleaved with the replies, and every
// proof and pushed bundle is checked only after 1,000 further round trips
// per goroutine have recycled the pool many times over: a decoded string,
// key or signature that still pointed into its frame would by then read some
// later message's bytes, and the signature check fails. CI runs this with
// -race -count=10.
func TestFrameAliasing(t *testing.T) {
	const (
		workers = 4
		kept    = 200  // proofs each worker holds on to
		further = 1000 // round trips each worker makes before checking them
	)
	for _, tr := range bothTransports {
		t.Run(tr.name, func(t *testing.T) {
			users := []string{"U0", "U1", "U2", "U3", "U4", "U5", "U6", "U7"}
			e := newEnv(t, append([]string{"BigISP", "AirNet", "Mark", "Issuer"}, users...)...)
			w := wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir})
			srv := Serve(w, tr.listen(e, "BigISP"))
			t.Cleanup(srv.Close)

			// Table 1's shape per user: a third-party grant carrying a
			// two-step support proof, extended by a cross-namespace step,
			// so replies nest proofs and differ from user to user.
			d1 := e.deleg("[Mark -> BigISP.memberServices] BigISP")
			d2 := e.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")
			sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*core.Delegation{d1, d2, e.deleg("[BigISP.member -> AirNet.access] AirNet")} {
				if err := w.Publish(d); err != nil {
					t.Fatal(err)
				}
			}
			for _, u := range users {
				if err := w.Publish(e.deleg(fmt.Sprintf("[%s -> BigISP.member] Mark", u)), sup); err != nil {
					t.Fatal(err)
				}
			}
			objects := []core.Role{e.role("BigISP.member"), e.role("AirNet.access")}

			c, err := Dial(context.Background(), tr.dialer(e, "U0"), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)

			// The subscription: every publish below arrives as a notify
			// frame carrying the whole bundle.
			var pushMu sync.Mutex
			var pushed []*core.Delegation
			_, cancel, err := c.SubscribeAll(context.Background(), func(p wire.NotifyPush) {
				if p.Bundle != nil {
					pushMu.Lock()
					pushed = append(pushed, p.Bundle.Delegation)
					pushMu.Unlock()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()

			// Issued up front: env helpers are not for concurrent use.
			churn := make([]*core.Delegation, 64)
			for i := range churn {
				churn[i] = e.deleg(fmt.Sprintf("[U1 -> Issuer.r%d] Issuer", i))
			}
			// Revocations are permanent, so the churn is one pass.
			var churnWG sync.WaitGroup
			churnWG.Add(1)
			go func() {
				defer churnWG.Done()
				for _, d := range churn {
					if err := w.Publish(d); err != nil {
						t.Errorf("churn publish: %v", err)
						return
					}
					if err := w.Revoke(d.ID(), e.id("Issuer").ID()); err != nil {
						t.Errorf("churn revoke: %v", err)
						return
					}
				}
			}()

			ctx := context.Background()
			at := e.clk.Now()
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					type answer struct {
						p       *core.Proof
						subject core.Subject
						object  core.Role
					}
					answers := make([]answer, 0, kept)
					for i := 0; i < kept+further; i++ {
						subject := core.SubjectEntity(e.id(users[(g+i)%len(users)]).ID())
						object := objects[i%len(objects)]
						p, err := c.QueryDirect(ctx, subject, object, nil, 0)
						if err != nil {
							t.Errorf("worker %d query %d: %v", g, i, err)
							return
						}
						if i < kept {
							answers = append(answers, answer{p, subject, object})
						}
					}
					for i, a := range answers {
						if a.p.Subject != a.subject || a.p.Object != a.object {
							t.Errorf("worker %d answer %d: proof %s => %s, asked %s => %s",
								g, i, a.p.Subject, a.p.Object, a.subject, a.object)
							return
						}
						if err := a.p.Validate(core.ValidateOptions{At: at}); err != nil {
							t.Errorf("worker %d answer %d no longer validates after %d further round trips: %v",
								g, i, further, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			churnWG.Wait()

			pushMu.Lock()
			defer pushMu.Unlock()
			for i, d := range pushed {
				if err := d.Verify(); err != nil {
					t.Errorf("pushed bundle %d no longer verifies: %v", i, err)
				}
			}
		})
	}
}

// TestCallLeavesNothingBehind is the regression test for the per-request
// time.After(30s) the client used to arm and never stop: with the default
// CallTimeout every call left a live timer and its channel on the heap for
// half a minute. 20,000 pings must now leave the heap where they found it.
func TestCallLeavesNothingBehind(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	ctx := context.Background()
	ping := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Ping(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	heapObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	ping(100) // pools, maps and goroutine stacks reach their working size
	before := heapObjects()
	ping(20000)
	after := heapObjects()
	// A leaked timer is three objects; leaking one call in twenty would
	// already trip this.
	if grown := int64(after) - int64(before); grown > 3000 {
		t.Fatalf("20,000 pings left %d more heap objects behind (%d -> %d)", grown, before, after)
	}
}

// rawFrame writes payload to conn as one transport frame: a 4-byte
// big-endian length, then the bytes.
func rawFrame(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
}

// readRawFrame reads one transport frame from conn.
func readRawFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	_, err := io.ReadFull(conn, payload)
	return payload, err
}

// rawHandshake runs the client side of the transport handshake by hand over
// a fresh TCP connection to addr as id, offering codecs in its hello (nil
// leaves the field out, as builds that predate negotiation do), and returns
// the connection once both proofs of possession are exchanged. Whether the
// server then serves it or hangs up is the server's codec decision.
func rawHandshake(t *testing.T, addr string, id *core.Identity, codecs []string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	nonce := make([]byte, 32)
	hello, err := json.Marshal(struct {
		Name   string   `json:"name"`
		Key    []byte   `json:"key"`
		Nonce  []byte   `json:"nonce"`
		Codecs []string `json:"codecs,omitempty"`
	}{id.Name(), id.Entity().Key, nonce, codecs})
	if err != nil {
		t.Fatal(err)
	}
	rawFrame(t, conn, hello)
	raw, err := readRawFrame(conn)
	if err != nil {
		t.Fatalf("server hello: %v", err)
	}
	var server struct {
		Nonce  []byte   `json:"nonce"`
		Codecs []string `json:"codecs"`
	}
	if err := json.Unmarshal(raw, &server); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(server.Codecs) != "[binary]" {
		t.Fatalf("server hello offers %q, want [binary]", server.Codecs)
	}
	transcript := append([]byte("drbac-transport-v1\x00client\x00"), nonce...)
	auth, err := json.Marshal(struct {
		Sig []byte `json:"sig"`
	}{id.SignBytes(append(transcript, server.Nonce...))})
	if err != nil {
		t.Fatal(err)
	}
	rawFrame(t, conn, auth)
	if _, err := readRawFrame(conn); err != nil {
		t.Fatalf("server auth: %v", err)
	}
	return conn
}

// TestServerSurvivesFailedHandshakes: one peer failing the handshake —
// garbage for a hello, a connection dropped before its hello, a hello that
// does not offer the binary codec (none at all, as builds that predate
// negotiation send; JSON only; only codecs this build does not know) — costs
// that connection and is counted; the listener keeps serving the next
// client. The accept loop used to return on the first such error and leave
// the daemon deaf until restart. A hello that offers binary anywhere in its
// list is served over binary, whatever else it offers. Raw bytes need a
// socket, so this runs over TCP; acceptLoop does not know which transport it
// serves, and the mem listener's own refusal is checked in
// internal/transport.
func TestServerSurvivesFailedHandshakes(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		e := newEnv(t, "BigISP", "Maria")
		o := obs.New(nil, obs.NewRegistry())
		w := wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir, Obs: o})
		ln, err := transport.ListenTCP("127.0.0.1:0", e.id("BigISP"))
		if err != nil {
			t.Fatal(err)
		}
		srv := Serve(w, ln)
		t.Cleanup(srv.Close)
		failures := o.Counter("drbac_server_handshake_failures_total")
		var want int64
		// served checks that a regular client is still served and that the
		// failures so far were counted: the accept loop is sequential, so once
		// this client is served every earlier handshake has been dealt with.
		served := func(when string) {
			t.Helper()
			// Bounded: a dead accept loop leaves a TCP dial hanging in its
			// handshake, not refused.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			c, err := Dial(ctx, &transport.TCPDialer{Identity: e.id("Maria")}, srv.Addr())
			if err != nil {
				t.Fatalf("%s: dial: %v", when, err)
			}
			defer c.Close()
			if err := c.Ping(ctx); err != nil {
				t.Fatalf("%s: ping: %v", when, err)
			}
			if got := failures.Value(); got != want {
				t.Fatalf("%s: handshake failures = %d, want %d", when, got, want)
			}
		}

		// A frame that is not a hello.
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		rawFrame(t, raw, []byte("GET / HTTP/1.1\r\n\r\n"))
		want++
		served("after a garbage frame")
		raw.Close()

		// A peer that connects and hangs up before its hello: the failure is
		// an I/O error, not a bad message.
		raw, err = net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		raw.Close()
		want++
		served("after a hang-up")

		ping, err := codec.Encode(wire.TPing, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			codecs []string
			served bool
		}{
			{[]string{"binary", "json"}, true},
			{[]string{"json", "binary"}, true},
			{[]string{"binary"}, true},
			{[]string{"future", "binary"}, true},
			{nil, false},
			{[]string{"json"}, false},
			{[]string{"future"}, false},
		} {
			conn := rawHandshake(t, srv.Addr(), e.id("Maria"), tc.codecs)
			rawFrame(t, conn, ping)
			reply, err := readRawFrame(conn)
			if tc.served {
				if env, derr := codec.Decode(reply); err != nil || derr != nil || env.Type != wire.TPong {
					t.Fatalf("hello offering %q: ping answered %v, %v; want a binary pong", tc.codecs, err, derr)
				}
			} else {
				if err == nil {
					t.Fatalf("hello offering %q: ping answered; want the connection refused", tc.codecs)
				}
				want++
			}
			served(fmt.Sprintf("after the hello offering %q", tc.codecs))
			conn.Close()
		}
	})
}
