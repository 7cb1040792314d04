package dht

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

var testStart = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func testIdentity(t *testing.T, name string, n byte) *core.Identity {
	t.Helper()
	seed := make([]byte, 32)
	seed[0] = n
	copy(seed[1:], name)
	id, err := core.IdentityFromSeed(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestIDDerivation(t *testing.T) {
	id := testIdentity(t, "alice", 1)
	fromEnt := IDFromEntity(id.Entity())
	fromKey := IDFromKey(id.Entity().Key)
	if fromEnt != fromKey {
		t.Fatalf("IDFromEntity %s != IDFromKey %s", fromEnt, fromKey)
	}
	fromEID, err := IDFromEntityID(id.ID())
	if err != nil {
		t.Fatal(err)
	}
	if fromEID != fromEnt {
		t.Fatalf("IDFromEntityID %s != IDFromEntity %s", fromEID, fromEnt)
	}
	// The DHT ID is the fingerprint's hex prefix: self-certifying both ways.
	if !strings.HasPrefix(string(id.ID()), fromEnt.String()) {
		t.Fatalf("ID %s is not a prefix of fingerprint %s", fromEnt, id.ID())
	}
	if _, err := IDFromEntityID(core.EntityID("zz")); err == nil {
		t.Fatal("malformed fingerprint accepted")
	}
	if _, err := IDFromBytes([]byte("short")); err == nil {
		t.Fatal("short wire ID accepted")
	}
}

func TestDistanceAndBuckets(t *testing.T) {
	var a, b ID
	b[0] = 0x80 // differs in the very first bit → bucket 159
	if i, ok := BucketIndex(a, b); !ok || i != 159 {
		t.Fatalf("BucketIndex = %d, %v; want 159, true", i, ok)
	}
	var c ID
	c[IDLen-1] = 0x01 // differs only in the last bit → bucket 0
	if i, ok := BucketIndex(a, c); !ok || i != 0 {
		t.Fatalf("BucketIndex = %d, %v; want 0, true", i, ok)
	}
	if _, ok := BucketIndex(a, a); ok {
		t.Fatal("self must not map to a bucket")
	}
	if !Less(Distance(a, c), Distance(a, b)) {
		t.Fatal("distance ordering broken")
	}
}

func idWithPrefix(first byte, rest byte) ID {
	var id ID
	id[0] = first
	for i := 1; i < IDLen; i++ {
		id[i] = rest
	}
	return id
}

func TestTableLRUAndProbation(t *testing.T) {
	self := ID{}
	tb := NewTable(self, 2)
	// Three contacts in the same bucket (top bit set → bucket 159).
	c1 := Contact{ID: idWithPrefix(0x80, 1), Addr: "a1"}
	c2 := Contact{ID: idWithPrefix(0x80, 2), Addr: "a2"}
	c3 := Contact{ID: idWithPrefix(0x80, 3), Addr: "a3"}
	if _, full := tb.Update(c1); full {
		t.Fatal("bucket reported full at size 0")
	}
	tb.Update(c2)
	evict, full := tb.Update(c3)
	if !full || evict.ID != c1.ID {
		t.Fatalf("want probation on oldest c1, got full=%v evict=%s", full, evict.ID.Short())
	}
	if tb.Contains(c3.ID) {
		t.Fatal("newcomer admitted to a full bucket without probation")
	}
	// Touching c1 makes c2 the eviction candidate.
	tb.Update(c1)
	if evict, full = tb.Update(c3); !full || evict.ID != c2.ID {
		t.Fatalf("after touch, want candidate c2, got %s", evict.ID.Short())
	}
	// Probation failure: replace the dead old-timer.
	tb.Replace(c2, c3)
	if tb.Contains(c2.ID) || !tb.Contains(c3.ID) {
		t.Fatal("Replace did not swap contacts")
	}
	// Self and empty addresses never enter.
	if _, full := tb.Update(Contact{ID: self, Addr: "self"}); full || tb.Contains(self) {
		t.Fatal("self entered the table")
	}
	tb.Update(Contact{ID: idWithPrefix(0x40, 1)})
	if tb.Len() != 2 {
		t.Fatalf("table len = %d, want 2", tb.Len())
	}
	got := tb.Closest(c1.ID, 10)
	if len(got) != 2 || got[0].ID != c1.ID {
		t.Fatalf("Closest ordering wrong: %v", got)
	}
}

func TestRecordSignVerify(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	mallory := testIdentity(t, "mallory", 2)
	now := testStart

	rec, err := SignRecord(alice, []string{"wallet.alice"}, 1, now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRecord(&rec, now); err != nil {
		t.Fatalf("fresh record rejected: %v", err)
	}
	if RecordKey(&rec) != IDFromEntity(alice.Entity()) {
		t.Fatal("record key is not the signer's ID")
	}

	tampered := rec
	tampered.Addrs = []string{"wallet.evil"}
	if err := VerifyRecord(&tampered, now); !errors.Is(err, ErrRecordBadSig) {
		t.Fatalf("tampered record: got %v, want ErrRecordBadSig", err)
	}

	unsigned := rec
	unsigned.Sig = nil
	if err := VerifyRecord(&unsigned, now); !errors.Is(err, ErrRecordUnsigned) {
		t.Fatalf("unsigned record: got %v, want ErrRecordUnsigned", err)
	}

	// Key mismatch: mallory signs a record that claims alice's key.
	forged, err := SignRecord(mallory, []string{"wallet.evil"}, 9, now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	forged.PublicKey = append([]byte(nil), alice.Entity().Key...)
	if err := VerifyRecord(&forged, now); !errors.Is(err, ErrRecordBadSig) {
		t.Fatalf("key-mismatched record: got %v, want ErrRecordBadSig", err)
	}

	badKey := rec
	badKey.PublicKey = []byte("short")
	if err := VerifyRecord(&badKey, now); !errors.Is(err, ErrRecordBadKey) {
		t.Fatalf("bad key: got %v, want ErrRecordBadKey", err)
	}

	if err := VerifyRecord(&rec, now.Add(2*time.Hour)); !errors.Is(err, ErrRecordExpired) {
		t.Fatalf("expired record: got %v, want ErrRecordExpired", err)
	}

	if _, err := SignRecord(alice, nil, 1, now, time.Hour); !errors.Is(err, ErrRecordNoAddrs) {
		t.Fatal("record with no addresses signed")
	}

	newer, _ := SignRecord(alice, []string{"wallet.alice2"}, 2, now.Add(time.Minute), time.Hour)
	if !Fresher(&newer, &rec) || Fresher(&rec, &newer) {
		t.Fatal("Fresher does not prefer the higher seq")
	}
}

// testNet is a cluster of DHT-enabled served wallets on one MemNetwork.
type testNet struct {
	t   *testing.T
	clk *clock.Fake
	net *transport.MemNetwork
}

type testNode struct {
	id      *core.Identity
	addr    string
	node    *Node
	peers   *peer.Manager
	server  *remote.Server
	network *testNet
}

func newTestNet(t *testing.T) *testNet {
	return &testNet{t: t, clk: clock.NewFake(testStart), net: transport.NewMemNetwork()}
}

func (tn *testNet) start(name string, n byte, opts ...func(*Config)) *testNode {
	tn.t.Helper()
	id := testIdentity(tn.t, name, n)
	addr := "wallet." + name
	peers := peer.NewManager(peer.Config{
		Dialer:      tn.net.Dialer(id),
		Clock:       tn.clk,
		CallTimeout: 5 * time.Second,
	})
	cfg := Config{
		Identity:  id,
		Addr:      addr,
		Peers:     peers,
		Clock:     tn.clk,
		K:         4,
		RecordTTL: time.Hour,
	}
	for _, o := range opts {
		o(&cfg)
	}
	node, err := NewNode(cfg)
	if err != nil {
		tn.t.Fatal(err)
	}
	w := wallet.New(wallet.Config{Owner: id, Clock: tn.clk})
	ln, err := tn.net.Listen(addr, id)
	if err != nil {
		tn.t.Fatal(err)
	}
	srv := remote.ServeOptions(w, ln, remote.Options{DHT: node})
	nd := &testNode{id: id, addr: addr, node: node, peers: peers, server: srv, network: tn}
	tn.t.Cleanup(func() {
		node.Close()
		srv.Close()
		peers.Close()
	})
	return nd
}

func TestBootstrapAnnounceResolve(t *testing.T) {
	tn := newTestNet(t)
	ctx := context.Background()

	seed := tn.start("seed", 1)
	nodes := []*testNode{seed}
	for i := 2; i <= 6; i++ {
		n := tn.start(fmt.Sprintf("n%d", i), byte(i))
		if err := n.node.Bootstrap(ctx, []string{seed.addr}); err != nil {
			t.Fatalf("bootstrap %s: %v", n.addr, err)
		}
		nodes = append(nodes, n)
	}

	// n2 announces an application entity it serves as home wallet.
	ent := testIdentity(t, "maria", 42)
	home := nodes[1]
	if err := home.node.Announce(ctx, ent, []string{home.addr}); err != nil {
		t.Fatal(err)
	}

	// Every other node resolves maria's home through the DHT.
	for _, n := range nodes[2:] {
		addrs, err := n.node.Home(ctx, core.SubjectEntity(ent.ID()))
		if err != nil {
			t.Fatalf("%s: resolve: %v", n.addr, err)
		}
		if len(addrs) != 1 || addrs[0] != home.addr {
			t.Fatalf("%s: resolved %v, want [%s]", n.addr, addrs, home.addr)
		}
	}

	// Unknown entities fail with ErrNotFound.
	ghost := testIdentity(t, "ghost", 99)
	if _, err := nodes[3].node.Home(ctx, core.SubjectEntity(ghost.ID())); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost resolve: got %v, want ErrNotFound", err)
	}

	// Stats reflect the traffic.
	st := home.node.Stats()
	if st.Announced != 1 {
		t.Fatalf("announced = %d, want 1", st.Announced)
	}
	if st.BucketPeers == 0 {
		t.Fatal("home node learned no contacts")
	}
	if st.ID != IDFromEntity(home.id.Entity()).String() {
		t.Fatalf("stats ID %s is not the node's ID", st.ID)
	}
}

func TestRepublishRefreshesExpiringRecords(t *testing.T) {
	tn := newTestNet(t)
	ctx := context.Background()
	a := tn.start("a", 1, func(c *Config) { c.RecordTTL = 30 * time.Minute })
	b := tn.start("b", 2, func(c *Config) { c.RecordTTL = 30 * time.Minute })
	if err := b.node.Bootstrap(ctx, []string{a.addr}); err != nil {
		t.Fatal(err)
	}
	ent := testIdentity(t, "svc", 7)
	if err := a.node.Announce(ctx, ent, []string{a.addr}); err != nil {
		t.Fatal(err)
	}
	key, _ := IDFromEntityID(ent.ID())
	rec0 := b.node.heldRecord(key)
	if rec0 == nil {
		t.Fatal("record not replicated to b")
	}

	// Half a TTL later the original record is still valid; a republish
	// bumps the seq everywhere.
	tn.clk.Advance(15 * time.Minute)
	a.node.republishAll()
	rec1 := b.node.heldRecord(key)
	if rec1 == nil || rec1.Seq <= rec0.Seq {
		t.Fatalf("republish did not advance the replica: %+v", rec1)
	}

	// Without republish, expiry drops the record (serve-time check).
	tn.clk.Advance(31 * time.Minute)
	if rec := b.node.heldRecord(key); rec != nil {
		t.Fatalf("expired record still served: %+v", rec)
	}
	b.node.expire()
	b.node.mu.Lock()
	held := len(b.node.store)
	b.node.mu.Unlock()
	if held != 0 {
		t.Fatalf("expire left %d records", held)
	}
}

func TestHandleStoreRefusals(t *testing.T) {
	tn := newTestNet(t)
	a := tn.start("a", 1)
	mallory := testIdentity(t, "mallory", 66)
	alice := testIdentity(t, "alice", 67)

	from := wire.DHTContact{Addr: "wallet.mallory"}
	good, err := SignRecord(alice, []string{"wallet.alice"}, 1, tn.clk.Now(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(wire.DHTRecord) wire.DHTRecord
		want   error
	}{
		{"unsigned", func(r wire.DHTRecord) wire.DHTRecord { r.Sig = nil; return r }, ErrRecordUnsigned},
		{"tampered", func(r wire.DHTRecord) wire.DHTRecord { r.Addrs = []string{"wallet.evil"}; return r }, ErrRecordBadSig},
		{"key-mismatch", func(r wire.DHTRecord) wire.DHTRecord {
			forged, _ := SignRecord(mallory, r.Addrs, r.Seq, r.IssuedAt, time.Hour)
			forged.PublicKey = append([]byte(nil), alice.Entity().Key...)
			return forged
		}, ErrRecordBadSig},
		{"expired", func(r wire.DHTRecord) wire.DHTRecord {
			old, _ := SignRecord(alice, r.Addrs, r.Seq, r.IssuedAt.Add(-2*time.Hour), time.Hour)
			return old
		}, ErrRecordExpired},
	}
	for _, tc := range cases {
		err := a.node.HandleStore(mallory.Entity(), wire.DHTStoreReq{From: from, Record: tc.mutate(good)})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if got := a.node.Stats().StoresRefused; got != int64(len(cases)) {
		t.Fatalf("storesRefused = %d, want %d", got, len(cases))
	}
	if a.node.Stats().ProviderRecords != 0 {
		t.Fatal("a refused record was stored anyway")
	}

	// The genuine record is accepted, and a replayed stale seq is a no-op.
	if err := a.node.HandleStore(mallory.Entity(), wire.DHTStoreReq{From: from, Record: good}); err != nil {
		t.Fatal(err)
	}
	newer, _ := SignRecord(alice, []string{"wallet.alice2"}, 5, tn.clk.Now(), time.Hour)
	if err := a.node.HandleStore(mallory.Entity(), wire.DHTStoreReq{From: from, Record: newer}); err != nil {
		t.Fatal(err)
	}
	if err := a.node.HandleStore(mallory.Entity(), wire.DHTStoreReq{From: from, Record: good}); err != nil {
		t.Fatal(err)
	}
	key := RecordKey(&good)
	if rec := a.node.heldRecord(key); rec == nil || rec.Seq != 5 {
		t.Fatalf("stale replay clawed back the record: %+v", rec)
	}
}

func TestFindValueServedOnlyVerified(t *testing.T) {
	tn := newTestNet(t)
	a := tn.start("a", 1)
	alice := testIdentity(t, "alice", 3)
	rec, _ := SignRecord(alice, []string{"wallet.alice"}, 1, tn.clk.Now(), time.Hour)
	key := RecordKey(&rec)
	// Poison the store directly with a forged record: serve-time
	// verification must still refuse to hand it out.
	forged := rec
	forged.Addrs = []string{"wallet.evil"}
	a.node.mu.Lock()
	a.node.store[key] = &forged
	a.node.mu.Unlock()
	resp, err := a.node.HandleFindValue(alice.Entity(), wire.DHTFindReq{Target: key[:]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Record != nil {
		t.Fatal("poisoned record served")
	}
}

func TestContactIdentityMismatchDropped(t *testing.T) {
	tn := newTestNet(t)
	ctx := context.Background()
	a := tn.start("a", 1)
	b := tn.start("b", 2)
	// a learns a contact claiming b's address under a fabricated ID; the
	// dial authenticates b's real key, so the fake contact is dropped and
	// the call refused.
	var fake ID
	fake[0] = 0xFF
	a.node.table.Update(Contact{ID: fake, Addr: b.addr})
	if _, err := a.node.contactClient(ctx, Contact{ID: fake, Addr: b.addr}); err == nil {
		t.Fatal("identity-mismatched contact dialable")
	}
	if a.node.table.Contains(fake) {
		t.Fatal("mismatched contact kept in table")
	}
}

func FuzzRecordVerify(f *testing.F) {
	id, _ := core.IdentityFromSeed("fuzz", make([]byte, 32))
	rec, _ := SignRecord(id, []string{"wallet.fuzz"}, 1, testStart, time.Hour)
	f.Add(rec.PublicKey, []byte(rec.Addrs[0]), rec.Seq, rec.IssuedAt.UnixNano(), int64(rec.TTLSeconds), rec.Sig)
	f.Add([]byte{}, []byte{}, uint64(0), int64(0), int64(-1), []byte{})
	f.Fuzz(func(t *testing.T, pub, addr []byte, seq uint64, issued, ttl int64, sig []byte) {
		r := wire.DHTRecord{
			PublicKey:  pub,
			Addrs:      []string{string(addr)},
			Seq:        seq,
			IssuedAt:   time.Unix(0, issued),
			TTLSeconds: int(ttl),
			Sig:        sig,
		}
		// Must never panic, and must never accept a record whose signature
		// was not made by the embedded key.
		err := VerifyRecord(&r, testStart)
		if err == nil {
			ent := core.Entity{Key: ed25519.PublicKey(r.PublicKey)}
			if !core.VerifyBytes(ent, recordSigningBytes(&r), r.Sig) {
				t.Fatalf("accepted record with bad signature: %s", hex.EncodeToString(sig))
			}
		}
	})
}
