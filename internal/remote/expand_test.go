package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// TestQueryExpandServes checks the two answers of query-expand: a hit is the
// one direct proof, a miss is the enumeration from the end the request names,
// empty when there is nothing to enumerate. Each is one request frame under
// the type's code: a home of this build states revision 1 in its hello.
func TestQueryExpandServes(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	for _, text := range []string{
		"[Maria -> BigISP.member] BigISP",
		"[BigISP.member -> BigISP.staff] BigISP",
	} {
		if err := w.Publish(e.deleg(text)); err != nil {
			t.Fatal(err)
		}
	}
	rec := &recordingDialer{Dialer: e.net.Dialer(e.id("Maria"))}
	c, err := Dial(context.Background(), rec, "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	maria, staff, guest := e.subject("Maria"), e.role("BigISP.staff"), e.role("BigISP.guest")

	want, err := w.QueryDirect(wallet.Query{Subject: maria, Object: staff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		proofs, err := c.QueryExpand(ctx, maria, staff, nil, false)
		if err != nil {
			t.Fatalf("hit %d: %v", i, err)
		}
		if len(proofs) != 1 || !sameProof(t, proofs[0], want) {
			t.Fatalf("hit %d: got %d proofs, want exactly the direct proof %s", i, len(proofs), want)
		}
	}

	for _, tc := range []struct {
		name    string
		reverse bool
		want    []*core.Proof
	}{
		{"miss forward", false, w.QuerySubject(maria, nil)},
		{"miss reverse", true, w.QueryObject(guest, nil)},
	} {
		proofs, err := c.QueryExpand(ctx, maria, guest, nil, tc.reverse)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(proofs) != len(tc.want) {
			t.Fatalf("%s: %d proofs, want the %d of the enumeration", tc.name, len(proofs), len(tc.want))
		}
		for i := range proofs {
			if !sameProof(t, proofs[i], tc.want[i]) {
				t.Errorf("%s: proof %d = %s, want %s", tc.name, i, proofs[i], tc.want[i])
			}
		}
	}
	if len(w.QueryObject(guest, nil)) != 0 {
		t.Fatal("BigISP.guest has in-edges; the reverse miss must enumerate nothing")
	}
	sent := rec.frames()
	if len(sent) != 4 {
		t.Fatalf("four query-expands sent %d frames, want one request each", len(sent))
	}
	for i, f := range sent {
		if f[2] != wire.Lookup(wire.TQueryExpand).Code { // byte 2 is the type code; 0 escapes to the name
			t.Errorf("query-expand frame %d starts %x, want the type's code", i, f[:4])
		}
	}
}

// A query-expand whose direction is neither forward nor reverse is refused
// with an error naming the field, and the connection keeps serving.
func TestQueryExpandRefusesDirection(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	for _, d := range []graph.Direction{0, graph.Bidirectional, -1} {
		err := c.call(context.Background(), wire.TQueryExpand, wire.QueryReq{
			Subject:   e.subject("Maria"),
			Object:    e.role("BigISP.member"),
			Direction: d,
		}, &wire.ProofsResp{})
		if err == nil || !strings.Contains(err.Error(), "query-expand: malformed request: direction") {
			t.Errorf("direction %d: err = %v, want the malformed-direction refusal", d, err)
		}
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after the refusals: %v", err)
	}
}

// TestOldClientQueriesUnchanged sends what a client built before query-expand
// sends for one frontier node — query-direct, then on its miss query-subject —
// as raw frames, and checks each reply byte for byte against the encoding of
// the served wallet's own answer.
func TestOldClientQueriesUnchanged(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	conn, err := e.net.Dialer(e.id("Maria")).Dial(context.Background(), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })

	maria, member, guest := e.subject("Maria"), e.role("BigISP.member"), e.role("BigISP.guest")
	hit, err := w.QueryDirect(wallet.Query{Subject: maria, Object: member})
	if err != nil {
		t.Fatal(err)
	}
	_, missErr := w.QueryDirect(wallet.Query{Subject: maria, Object: guest})
	for _, tc := range []struct {
		name      string
		req       wire.MsgType
		body      wire.QueryReq
		replyType wire.MsgType
		reply     any
	}{
		{"direct hit", wire.TQueryDirect, wire.QueryReq{Subject: maria, Object: member},
			wire.TProof, wire.ProofResp{Proof: hit}},
		{"direct miss", wire.TQueryDirect, wire.QueryReq{Subject: maria, Object: guest},
			wire.TError, wire.ErrorResp{Message: missErr.Error(), NoProof: true}},
		{"subject", wire.TQuerySubject, wire.QueryReq{Subject: maria},
			wire.TProofs, wire.ProofsResp{Proofs: w.QuerySubject(maria, nil)}},
	} {
		id := uint64(len(tc.name))
		frame, err := codec.Encode(tc.req, id, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := codec.Encode(tc.replyType, id, tc.reply)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reply\n %x\nwant\n %x", tc.name, got, want)
		}
	}
}

// TestOldClientNamedExpand sends query-expand as the builds that probed for
// the row did with their first request on a connection: framed under the
// type's name (type code 0) rather than its code 22. Hit and miss alike, the
// reply is byte for byte the one the code-22 frame gets, and the connection
// keeps serving both forms.
func TestOldClientNamedExpand(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	conn, err := e.net.Dialer(e.id("Maria")).Dial(context.Background(), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	send := func(frame []byte) []byte {
		t.Helper()
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatalf("reply: %v", err)
		}
		return got
	}

	maria := e.subject("Maria")
	for _, object := range []core.Role{e.role("BigISP.member"), e.role("BigISP.guest")} {
		coded, err := codec.Encode(wire.TQueryExpand, 9, wire.QueryReq{Subject: maria, Object: object, Direction: graph.Forward})
		if err != nil {
			t.Fatal(err)
		}
		// Byte 2 is the type code; code 0 is followed by the type's name.
		named := append([]byte{coded[0], coded[1], 0, byte(len(wire.TQueryExpand))}, wire.TQueryExpand...)
		named = append(named, coded[3:]...)
		want := send(coded)
		if env, err := codec.Decode(want); err != nil || env.Type != wire.TProofs {
			t.Fatalf("%s: the code-22 frame got %q (%v), want a proofs reply", object, env.Type, err)
		}
		for i, frame := range [][]byte{named, coded, named} {
			if got := send(frame); !bytes.Equal(got, want) {
				t.Errorf("%s, frame %d: reply\n %x\nwant the code-22 frame's\n %x", object, i, got, want)
			}
		}
	}
}

// recordingDialer keeps a copy of every frame its connections send.
type recordingDialer struct {
	transport.Dialer
	mu   sync.Mutex
	sent [][]byte
}

func (d *recordingDialer) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := d.Dialer.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return recordingConn{c, d}, nil
}

func (d *recordingDialer) frames() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]byte(nil), d.sent...)
}

type recordingConn struct {
	transport.Conn
	d *recordingDialer
}

func (c recordingConn) Send(p []byte) error {
	c.d.mu.Lock()
	c.d.sent = append(c.d.sent, append([]byte(nil), p...))
	c.d.mu.Unlock()
	return c.Conn.Send(p)
}

// sameProof reports whether two proofs marshal to the same JSON.
func sameProof(t *testing.T, a, b *core.Proof) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
