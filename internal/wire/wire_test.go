package wire

import (
	"math"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
)

func fixtureProof(t testing.TB) (*core.Proof, *core.MemDirectory, time.Time) {
	t.Helper()
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	mk := func(name string, b byte) *core.Identity {
		seed := make([]byte, 32)
		for i := range seed {
			seed[i] = b
		}
		id, err := core.IdentityFromSeed(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	bigISP, mark, maria := mk("BigISP", 1), mk("Mark", 3), mk("Maria", 5)
	dir := core.NewDirectory(bigISP.Entity(), mark.Entity(), maria.Entity())

	issue := func(issuer *core.Identity, text string) *core.Delegation {
		parsed, err := core.ParseDelegation(text, dir)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		d, err := core.Issue(issuer, parsed.Template, now)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := issue(bigISP, "[Mark -> BigISP.memberServices] BigISP")
	d2 := issue(bigISP, "[BigISP.memberServices -> BigISP.member'] BigISP")
	d3 := issue(mark, "[Maria -> BigISP.member with BigISP.quota -= 5] Mark <expiry:2027-01-01T00:00:00Z>")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProof(core.ProofStep{Delegation: d3, Support: []*core.Proof{sup}})
	if err != nil {
		t.Fatal(err)
	}
	return p, dir, now
}

func TestEnvelopeRoundTrip(t *testing.T) {
	frame, err := (Codec{}).Encode(TPing, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TPing || env.ID != 42 {
		t.Fatalf("env = %+v", env)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := (Codec{}).Decode([]byte("\xD7")); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := (Codec{}).Decode([]byte{binMagic, binVersion, 0, 0, 1, bkNone}); err == nil {
		t.Fatal("missing type accepted")
	}
	env, err := (Codec{}).Decode([]byte{binMagic, binVersion, byType[TOK].Code, 1, bkJSON})
	if err != nil {
		t.Fatal(err)
	}
	var body ErrorResp
	if err := DecodeBody(env, &body); err == nil {
		t.Fatal("empty body decode should fail")
	}
}

// The critical property: a proof survives a wire round trip with its
// signatures still verifying, because delegations sign a canonical encoding
// independent of JSON.
func TestProofSurvivesWireRoundTrip(t *testing.T) {
	p, _, now := fixtureProof(t)
	frame, err := (Codec{}).Encode(TProof, 7, ProofResp{Proof: p})
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var resp ProofResp
	if err := DecodeBody(env, &resp); err != nil {
		t.Fatal(err)
	}
	got := resp.Proof
	if err := got.Validate(core.ValidateOptions{At: now}); err != nil {
		t.Fatalf("deserialized proof no longer validates: %v", err)
	}
	if got.Steps[0].Delegation.ID() != p.Steps[0].Delegation.ID() {
		t.Fatal("delegation ID changed across the wire")
	}
	ag, err := got.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	quota := core.AttributeRef{Namespace: p.Steps[0].Delegation.Object.Namespace, Name: "quota"}
	if v := ag.Value(quota, 100); v != 95 {
		t.Fatalf("attribute survived as %v, want 95", v)
	}
}

func TestDelegationFieldsSurviveWire(t *testing.T) {
	p, _, _ := fixtureProof(t)
	d := p.Steps[0].Delegation
	frame, err := (Codec{}).Encode(TPublish, 1, PublishReq{Delegation: d, Support: p.Steps[0].Support, TTLSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var req PublishReq
	if err := DecodeBody(env, &req); err != nil {
		t.Fatal(err)
	}
	got := req.Delegation
	if got.ID() != d.ID() {
		t.Fatal("ID mismatch")
	}
	if !got.Expiry.Equal(d.Expiry) {
		t.Fatalf("expiry mismatch: %v vs %v", got.Expiry, d.Expiry)
	}
	if got.Kind() != core.KindThirdParty {
		t.Fatal("kind lost")
	}
	if len(req.Support) != 1 || req.Support[0].Len() != 2 {
		t.Fatal("support proofs lost")
	}
	if req.TTLSeconds != 30 {
		t.Fatal("TTL lost")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("signature lost: %v", err)
	}
}

// Regression: constraints with infinite bases (the default for
// min-collected attributes) must survive the wire; JSON rejects raw ±Inf.
func TestConstraintWithInfiniteBaseSurvivesWire(t *testing.T) {
	p, _, _ := fixtureProof(t)
	bw := core.AttributeRef{Namespace: p.Steps[0].Delegation.Object.Namespace, Name: "BW"}
	req := QueryReq{
		Subject: p.Subject,
		Object:  p.Object,
		Constraints: []core.Constraint{
			{Attr: bw, Base: math.Inf(1), Minimum: 50},
			{Attr: bw, Base: 100, Minimum: 0.25},
		},
	}
	frame, err := (Codec{}).Encode(TQueryDirect, 3, req)
	if err != nil {
		t.Fatalf("encode with Inf base: %v", err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var got QueryReq
	if err := DecodeBody(env, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Constraints) != 2 {
		t.Fatalf("constraints = %d", len(got.Constraints))
	}
	if !math.IsInf(got.Constraints[0].Base, 1) || got.Constraints[0].Minimum != 50 {
		t.Fatalf("constraint 0 = %+v", got.Constraints[0])
	}
	if got.Constraints[1].Base != 100 || got.Constraints[1].Minimum != 0.25 {
		t.Fatalf("constraint 1 = %+v", got.Constraints[1])
	}
}

func TestNotifyPushRoundTrip(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	frame, err := (Codec{}).Encode(TNotify, 0, NotifyPush{Delegation: "abc", Kind: "revoked", At: at})
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if env.ID != 0 || env.Type != TNotify {
		t.Fatalf("env = %+v", env)
	}
	var push NotifyPush
	if err := DecodeBody(env, &push); err != nil {
		t.Fatal(err)
	}
	if push.Delegation != "abc" || push.Kind != "revoked" || !push.At.Equal(at) {
		t.Fatalf("push = %+v", push)
	}
}

func TestQueryReqTraceIDRoundTrip(t *testing.T) {
	frame, err := (Codec{}).Encode(TQueryDirect, 7, QueryReq{TraceID: "abc123def4567890"})
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var req QueryReq
	if err := DecodeBody(env, &req); err != nil {
		t.Fatal(err)
	}
	if req.TraceID != "abc123def4567890" {
		t.Fatalf("trace = %q", req.TraceID)
	}
	// An absent trace ID costs one length byte.
	empty, err := (Codec{}).Encode(TQueryDirect, 7, QueryReq{})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame)-len(empty) != len("abc123def4567890") {
		t.Fatalf("trace ID costs %d bytes, want %d", len(frame)-len(empty), len("abc123def4567890"))
	}
}

func TestStatsRespRoundTrip(t *testing.T) {
	resp := StatsResp{
		Role: "primary",
		Seq:  12,
		Metrics: obs.Snapshot{
			Counters: map[string]int64{"drbac_server_requests_total": 17},
			Gauges:   map[string]int64{"drbac_wallet_delegations": 3},
			Histograms: map[string]obs.HistogramSnapshot{
				"drbac_wallet_query_seconds": {
					Count: 2, Sum: 0.5,
					Buckets: []obs.BucketCount{{UpperBound: 0.001, Count: 1}, {UpperBound: 1, Count: 2}},
				},
			},
		},
	}
	frame, err := (Codec{}).Encode(TOK, 9, resp)
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var got StatsResp
	if err := DecodeBody(env, &got); err != nil {
		t.Fatal(err)
	}
	if got.Role != "primary" || got.Seq != 12 {
		t.Fatalf("role/seq = %+v", got)
	}
	if got.Metrics.Counters["drbac_server_requests_total"] != 17 {
		t.Fatalf("counters = %+v", got.Metrics.Counters)
	}
	h := got.Metrics.Histograms["drbac_wallet_query_seconds"]
	if h.Count != 2 || h.Sum != 0.5 || len(h.Buckets) != 2 || h.Buckets[1].Count != 2 {
		t.Fatalf("histogram = %+v", h)
	}
}
