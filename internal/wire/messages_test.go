package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/obs"
)

// tableBody is one (message type, body) pairing the table declares: a row's
// own body, or the body of the `ok` that answers it.
type tableBody struct {
	t  MsgType
	mk func() any
}

// tableBodies lists every pairing in Messages, in table order.
func tableBodies() []tableBody {
	var out []tableBody
	for _, m := range Messages {
		if m.Body != nil {
			out = append(out, tableBody{m.Type, m.Body})
		}
		if m.OK != nil {
			out = append(out, tableBody{m.Reply, m.OK})
		}
	}
	return out
}

// populated returns, for each body type the table names, values with every
// field set the way production traffic sets it — built around a real signed
// three-delegation proof chain so the hand-rolled encoders see real
// principals, modifiers, expiries and support proofs.
func populated(t testing.TB) map[reflect.Type][]any {
	t.Helper()
	p, _, now := fixtureProof(t)
	d := p.Steps[0].Delegation
	sup := p.Steps[0].Support
	record := DHTRecord{
		PublicKey:  make([]byte, 32),
		Addrs:      []string{"wallet.bigisp:7100"},
		Seq:        3,
		IssuedAt:   time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		TTLSeconds: 3600,
		Sig:        make([]byte, 64),
	}
	shardMap := json.RawMessage(`{"epoch":7,"shards":[]}`)
	out := make(map[reflect.Type][]any)
	for _, v := range []any{
		PublishReq{Delegation: d, Support: sup, TTLSeconds: 300, ShardEpoch: 7},
		QueryReq{
			Subject: core.Subject{Entity: d.Subject.Entity},
			Object:  d.Object,
			Constraints: []core.Constraint{{
				Attr:    core.AttributeRef{Namespace: d.Object.Namespace, Name: "quota"},
				Base:    100,
				Minimum: 10,
			}},
			Direction: graph.Forward,
			TraceID:   "trace-1",
			SpanID:    "span-9",
		},
		QueryReq{Subject: core.Subject{Role: d.Object}},
		SubscribeReq{Delegation: d.ID()},
		RevokeReq{Delegation: d.ID(), ShardEpoch: 3},
		ProveRoleReq{Role: d.Object},
		HasReq{Delegation: d.ID()},
		HasResp{Present: true},
		StatsResp{
			Role: "primary", Seq: 9, Delegations: 4, Revoked: 1, CacheHits: 12,
			Metrics: obs.Snapshot{Counters: map[string]int64{"drbac_server_requests_total": 3}},
			Cluster: &ClusterStats{Epoch: 2, Shard: 1, Shards: 4, Routes: map[string]int64{"1": 8}},
			DHT:     &DHTStats{ID: "ab", BucketPeers: 3},
			Wire:    &WireStats{ConnCodec: CodecBinary, BinaryFramesEncoded: 5},
		},
		SyncResp{
			Seq:     44,
			Bundles: []SyncBundle{{Delegation: d, Support: sup}},
			Revoked: []core.DelegationID{"dead-1", "dead-2"},
		},
		SubscribeAllResp{Seq: 9},
		TraceReq{TraceID: "0123456789abcdef"},
		TraceResp{Found: true, Spans: []obs.SpanRecord{{
			TraceID: "0123456789abcdef", SpanID: "s1", Name: "serve:query-direct", Root: true,
			Start: now, DurationUS: 42, Attrs: map[string]string{"found": "true"},
		}}},
		ShardMapResp{Epoch: 7, Shard: -1, Map: shardMap},
		DHTFindReq{From: DHTContact{ID: make([]byte, 20), Addr: "wallet.a"}, Target: make([]byte, 20)},
		DHTFindReq{Target: []byte{0xff}},
		DHTFindResp{Record: &record},
		DHTFindResp{Contacts: []DHTContact{{ID: make([]byte, 20), Addr: "wallet.c"}}},
		DHTStoreReq{From: DHTContact{Addr: "wallet.b"}, Record: record},
		ProofResp{Proof: p},
		ProofsResp{Proofs: []*core.Proof{p, sup[0]}},
		ErrorResp{Message: "boom", NoProof: true},
		ErrorResp{Message: "stale", Redirect: &Redirect{Epoch: 8, Shard: 2, Addrs: []string{"s2:7100"}, Map: shardMap}},
		NotifyPush{Delegation: d.ID(), Kind: "revoked", At: now, Seq: 12},
		NotifyPush{
			Delegation: d.ID(), Kind: "published", At: now, Seq: 13,
			Bundle: &SyncBundle{Delegation: d, Support: sup},
		},
	} {
		out[reflect.TypeOf(v)] = append(out[reflect.TypeOf(v)], v)
	}
	return out
}

// decodeVia drives body through the codec — encode, decode the envelope,
// decode the body into a fresh target — and returns the envelope and target.
func decodeVia(t testing.TB, tb tableBody, body any) (Envelope, any) {
	t.Helper()
	frame, err := (Codec{}).Encode(tb.t, 7, body)
	if err != nil {
		t.Fatalf("%s %T: encode: %v", tb.t, body, err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatalf("%s %T: decode: %v", tb.t, body, err)
	}
	if env.Type != tb.t || env.ID != 7 {
		t.Fatalf("%s: envelope = %q id %d", tb.t, env.Type, env.ID)
	}
	out := tb.mk()
	if err := DecodeBody(env, out); err != nil {
		t.Fatalf("%s %T: decode body: %v", tb.t, body, err)
	}
	return env, out
}

// TestMessageTableRoundTrip is the codec suite, driven by the table: for
// every body Messages declares, the zero value and every populated fixture
// must survive encode → decode → DecodeBody field-for-field (JSON re-marshal
// equality) — a proof fetched over the wire re-marshals byte-identically to
// the local one. Bodies with a hand-rolled layout must ride as that layout;
// every other body rides inside the binary envelope as JSON.
func TestMessageTableRoundTrip(t *testing.T) {
	fixtures := populated(t)
	for _, tb := range tableBodies() {
		typ := reflect.TypeOf(tb.mk()).Elem()
		if len(fixtures[typ]) == 0 {
			t.Errorf("%s carries %s, which has no populated fixture: add one to populated()", tb.t, typ)
		}
		bodies := append([]any{reflect.Zero(typ).Interface()}, fixtures[typ]...)
		for _, body := range bodies {
			want, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			env, got := decodeVia(t, tb, body)
			if b, _ := json.Marshal(got); !bytes.Equal(b, want) {
				t.Errorf("%s %s: round trip diverged\nwant %s\ngot  %s", tb.t, typ, want, b)
			}
			var wantKind byte
			if hot, ok := body.(interface{ binKind() byte }); ok {
				wantKind = hot.binKind()
			}
			if env.binKind != wantKind {
				t.Errorf("%s %s: body kind = %d, want %d (0 = JSON fallback)", tb.t, typ, env.binKind, wantKind)
			}
		}
	}
}

// TestEveryBinaryKindIsInTheTable: a hand-rolled layout no message carries
// would be dead code the table-driven tests and fuzzers never reach, and a
// retired kind a row carries again would be misread by an older peer.
func TestEveryBinaryKindIsInTheTable(t *testing.T) {
	seen := make(map[byte]reflect.Type)
	for _, tb := range tableBodies() {
		if hot, ok := tb.mk().(interface{ binKind() byte }); ok {
			seen[hot.binKind()] = reflect.TypeOf(hot)
		}
	}
	for k := bkJSON + 1; k <= bkMax; k++ {
		retired := k == bkRetiredSegmentsReq || k == bkRetiredSegmentsResp
		switch {
		case retired && seen[k] != nil:
			t.Errorf("retired body kind %d is carried again, by %s", k, seen[k])
		case !retired && seen[k] == nil:
			t.Errorf("body kind %d is carried by no row of Messages", k)
		}
	}
}

// goldenCodes is the type-code assignment deployed peers speak. Codes are
// protocol constants: a row may be appended to Messages, but renumbering or
// dropping one of these breaks every one of them.
var goldenCodes = map[MsgType]byte{
	"publish": 1, "query-direct": 2, "query-subject": 3, "query-object": 4,
	"subscribe": 5, "unsubscribe": 6, "revoke": 7, "prove-role": 8, "has": 9,
	"ping": 10, "stats": 11, "sync": 12, "subscribe-all": 13, "sync-segments": 14,
	"trace": 15, "shardmap": 16, "dht-find-node": 17, "dht-find-value": 18,
	"dht-store": 19, "gossip-ping": 20, "gossip-ping-req": 21,
	"ok": 32, "proof": 33, "proofs": 34, "error": 35, "notify": 36, "pong": 37,
	"cluster-hello": 38,
}

func TestMessageTableCodes(t *testing.T) {
	names := make(map[MsgType]bool)
	codes := make(map[byte]MsgType)
	for _, m := range Messages {
		if m.Type == "" || m.Code == 0 {
			t.Errorf("row %+v: empty type or the escape code 0", m)
		}
		if names[m.Type] {
			t.Errorf("type %q has two rows", m.Type)
		}
		if prev, dup := codes[m.Code]; dup {
			t.Errorf("code %d names both %q and %q", m.Code, prev, m.Type)
		}
		names[m.Type], codes[m.Code] = true, m.Type
		if Lookup(m.Type) == nil || Lookup(m.Type).Code != m.Code || byCode[m.Code].Type != m.Type {
			t.Errorf("%q: Lookup and the code index disagree with the row", m.Type)
		}
		if m.Reply != "" && (Lookup(m.Reply) == nil || Lookup(m.Reply).Reply != "") {
			t.Errorf("%q: reply %q is not a reply row", m.Type, m.Reply)
		}
		if m.OK != nil && m.Reply != TOK {
			t.Errorf("%q declares an ok body but replies %q", m.Type, m.Reply)
		}
		if m.Reserved && m.Reply != "" {
			t.Errorf("%q is reserved yet declared a request", m.Type)
		}
		if m.Reply == "" && (m.Mutates || m.Tier != TierWallet) {
			t.Errorf("%q is no request yet declares who may be sent it (mutates %v, tier %s)", m.Type, m.Mutates, m.Tier)
		}
	}
	for name, code := range goldenCodes {
		if m := Lookup(name); m == nil || m.Code != code {
			t.Errorf("%q must keep type code %d; table has %+v", name, code, m)
		}
	}
	// A retired request's code stays on its reserved, bodiless row: a row
	// served under it again would answer an older peer that still sends the
	// retired message as if it were the new one.
	retired := map[byte]MsgType{14: TSyncSegments, 20: TGossipPing, 21: TGossipPingReq}
	for _, m := range Messages {
		if want, ok := retired[m.Code]; ok && (m.Type != want || !m.Reserved || m.Body != nil || m.OK != nil) {
			t.Errorf("code %d is retired with %q, yet its row is %+v", m.Code, want, m)
		}
	}
	if Lookup("future-msg") != nil {
		t.Error("Lookup invented a row")
	}
}

// TestReservedRowsStillDecode: a reserved type keeps its code so a frame from
// an older build still decodes (internal/remote checks that
// serving one is refused). cluster-hello still carries its body;
// sync-segments and the gossip probes declare none and decode as a bare
// envelope.
func TestReservedRowsStillDecode(t *testing.T) {
	var reserved []MsgType
	for _, m := range Messages {
		if !m.Reserved {
			continue
		}
		reserved = append(reserved, m.Type)
		if m.Body == nil {
			frame, err := (Codec{}).Encode(m.Type, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			if env, err := (Codec{}).Decode(frame); err != nil || env.Type != m.Type || env.ID != 7 || len(env.Body) != 0 {
				t.Errorf("%s: bare envelope decoded to %+v, %v", m.Type, env, err)
			}
			continue
		}
		_, out := decodeVia(t, tableBody{m.Type, m.Body}, ShardMapResp{Epoch: 3, Shard: 1})
		if got := out.(*ShardMapResp); got.Epoch != 3 || got.Shard != 1 {
			t.Errorf("%s: body = %+v", m.Type, got)
		}
	}
	if fmt.Sprint(reserved) != "[sync-segments gossip-ping gossip-ping-req cluster-hello]" {
		t.Errorf("reserved rows %v, want exactly sync-segments, gossip-ping, gossip-ping-req and cluster-hello", reserved)
	}
}

// specRow matches one SPEC §5 table row: | `type` | code | … |, with
// "reserved" somewhere in a reserved type's row. A request row's next two
// cells are mutates (yes/no) and tier; a reply row goes straight to its body.
var specRow = regexp.MustCompile("^\\| `([a-z-]+)` \\| (\\d+) \\|(.*)\\|$")

// TestSpecMessageTableMatches holds docs/SPEC.md §5 to the table: every row
// of Messages (name, code, reserved or not, and for a request who may be sent
// it: mutates and tier) appears there, and nothing else does.
func TestSpecMessageTableMatches(t *testing.T) {
	spec, err := os.ReadFile("../../docs/SPEC.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(spec), "\n## 5. Wallet wire protocol\n")
	if !ok {
		t.Fatal("docs/SPEC.md has no §5")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	type row struct {
		code     int
		reserved bool
		cells    []string // the cells after the code
	}
	documented := make(map[MsgType]row)
	for _, line := range strings.Split(section, "\n") {
		m := specRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		code, _ := strconv.Atoi(m[2])
		if _, dup := documented[MsgType(m[1])]; dup {
			t.Errorf("SPEC §5 documents %q twice", m[1])
		}
		cells := strings.Split(m[3], "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		documented[MsgType(m[1])] = row{code, strings.Contains(m[3], "reserved"), cells}
	}
	for _, m := range Messages {
		got, ok := documented[m.Type]
		mutates := map[bool]string{true: "yes", false: "no"}[m.Mutates]
		switch {
		case !ok:
			t.Errorf("SPEC §5 has no row for %q (code %d)", m.Type, m.Code)
		case got.code != int(m.Code):
			t.Errorf("SPEC §5 gives %q code %d; the table says %d", m.Type, got.code, m.Code)
		case got.reserved != m.Reserved:
			t.Errorf("SPEC §5 reserved=%v for %q; the table says %v", got.reserved, m.Type, m.Reserved)
		case m.Reply != "" && (len(got.cells) < 2 || got.cells[0] != mutates || got.cells[1] != m.Tier.String()):
			t.Errorf("SPEC §5 gives request %q the cells %q; the table says mutates %s, tier %s",
				m.Type, got.cells, mutates, m.Tier)
		}
		delete(documented, m.Type)
	}
	for name := range documented {
		t.Errorf("SPEC §5 documents %q, which is not in wire.Messages", name)
	}
}

// legacyJSONFrame is what a build that still spoke the retired JSON codec
// framed: the envelope itself as JSON, the body inside it. Such a frame must
// be refused on sight (its first byte is '{', never the binary magic).
func legacyJSONFrame(t testing.TB, typ MsgType, id uint64, body any) []byte {
	t.Helper()
	var raw json.RawMessage
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		raw = b
	}
	frame, err := json.Marshal(Envelope{Type: typ, ID: id, Body: raw})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// FuzzMessageDecode drives adversarial bytes through the full decode path of
// every message in the table — envelope, then the bodies its row declares —
// the way a server or client handles a frame from an authenticated but
// untrusted peer. The decoders must never panic, and any body they accept
// must survive an encode/decode round trip unchanged: no state smuggled
// through unparsed bytes. Seeds: every row's zero and populated bodies, each
// framed by the codec and as the retired JSON codec framed it (malformed
// input now), plus hand-written hostile frames and an older build's frames
// for a retired message.
func FuzzMessageDecode(f *testing.F) {
	fixtures, bodies := populated(f), tableBodies()
	for _, tb := range bodies {
		typ := reflect.TypeOf(tb.mk()).Elem()
		for _, body := range append([]any{reflect.Zero(typ).Interface()}, fixtures[typ]...) {
			f.Add(legacyJSONFrame(f, tb.t, 1, body))
			frame, err := (Codec{}).Encode(tb.t, 1, body)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte(nil), frame...))
		}
	}
	f.Add([]byte(`{"type":"dht-store","id":9,"body":{"record":{"seq":-1,"ttlSeconds":1e99}}}`))
	f.Add([]byte{binMagic, binVersion, 10, 1, bkNone})
	f.Add([]byte{binMagic, binVersion, 0, 4, 'p', 'i', 'n', 'g', 1, bkNone})
	// A count field claiming 2^32 elements in a five-byte body.
	f.Add([]byte{binMagic, binVersion, 2, 1, bkQueryReq, 0x80, 0x80, 0x80, 0x80, 0x10})
	// What an older build sends in the retired sync-segments exchange —
	// request and reply, empty and populated, under each codec it spoke —
	// byte for byte as its encoder framed them.
	for _, frame := range [][]byte{
		[]byte(`{"type":"sync-segments","id":1,"body":{}}`),
		[]byte(`{"type":"sync-segments","id":1,"body":{"afterSeq":5}}`),
		[]byte(`{"type":"ok","id":1,"body":{"seq":0,"segments":null}}`),
		[]byte(`{"type":"ok","id":1,"body":{"seq":80,"segments":[{"name":"seg-000001","sealed":true,"records":"cjEKcjIK"}]}}`),
		{binMagic, binVersion, 14, 1, bkRetiredSegmentsReq, 0},
		{binMagic, binVersion, 14, 1, bkRetiredSegmentsReq, 5},
		{binMagic, binVersion, 32, 1, bkRetiredSegmentsResp, 0, 0},
		append([]byte{binMagic, binVersion, 32, 1, bkRetiredSegmentsResp, 80, 1, 10}, "seg-000001\x01\x06r1\nr2\n"...),
	} {
		f.Add(frame)
	}
	// And what an older -dht member sends in the retired gossip exchange —
	// probes and their acks, empty and populated, each body JSON in the
	// binary envelope and in the retired JSON one — plus a forged verdict.
	updates := `[{"addr":"wallet.a","status":"alive","incarnation":1},{"addr":"wallet.b","status":"suspect","incarnation":0},{"addr":"wallet.c","status":"dead","incarnation":7}]`
	for _, ex := range []struct {
		t    MsgType
		id   uint64
		body string
	}{
		{TGossipPing, 1, `{"from":""}`},
		{TGossipPing, 1, `{"from":"wallet.a","updates":` + updates + `}`},
		{TGossipPing, 1, `{"from":"wallet.a","target":"wallet.b"}`},
		{TGossipPingReq, 2, `{"from":""}`},
		{TGossipPingReq, 2, `{"from":"wallet.a","updates":` + updates + `}`},
		{TGossipPingReq, 2, `{"from":"wallet.a","target":"wallet.b"}`},
		{TOK, 1, `{"from":""}`},
		{TOK, 1, `{"from":"wallet.b","updates":` + updates + `}`},
		{TOK, 2, `{"from":""}`},
		{TOK, 2, `{"from":"wallet.b","updates":` + updates + `}`},
	} {
		f.Add(legacyJSONFrame(f, ex.t, ex.id, json.RawMessage(ex.body)))
		f.Add(append([]byte{binMagic, binVersion, Lookup(ex.t).Code, byte(ex.id), bkJSON}, ex.body...))
	}
	f.Add([]byte(`{"type":"gossip-ping","id":2,"body":{"updates":[{"status":"zombie","incarnation":18446744073709551615}]}}`))
	f.Add(append([]byte{binMagic, binVersion, 20, 3, bkJSON}, `{"from":"10.0.0.99:22","updates":[{"addr":"wallet.a","status":"dead","incarnation":18446744073709551615}]}`...))

	f.Fuzz(func(t *testing.T, frame []byte) {
		var codec Codec
		env, err := codec.Decode(frame)
		if err != nil {
			return
		}
		// The body is tried against every body in the table, whatever its
		// type claims: the wrong kinds must error cleanly, the right one must
		// decode without panicking or over-reading.
		tried := make(map[reflect.Type]bool)
		for _, tb := range bodies {
			out := tb.mk()
			if tried[reflect.TypeOf(out)] {
				continue
			}
			tried[reflect.TypeOf(out)] = true
			if DecodeBody(env, out) != nil {
				continue
			}
			body := reflect.ValueOf(out).Elem().Interface()
			frame2, err := codec.Encode(env.Type, env.ID, body)
			if err != nil {
				t.Fatalf("re-encode accepted %s %T: %v", env.Type, body, err)
			}
			env2, err := codec.Decode(frame2)
			if err != nil {
				t.Fatalf("re-decode %s envelope: %v", env.Type, err)
			}
			out2 := tb.mk()
			if err := DecodeBody(env2, out2); err != nil {
				t.Fatalf("re-decode %s %T: %v", env.Type, body, err)
			}
			a, _ := json.Marshal(out)
			b, _ := json.Marshal(out2)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s %T not stable across a round trip:\n1st: %s\n2nd: %s", env.Type, body, a, b)
			}
		}
	})
}
