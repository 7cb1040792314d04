package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
)

// tableDecode sends p through the codec as a proof reply, the one body the
// delegation table serves, and returns the decoded proof. The frame goes
// back to the pool before the proof is returned.
func tableDecode(t testing.TB, p *core.Proof) *core.Proof {
	t.Helper()
	frame, err := (Codec{}).Encode(TProof, 1, ProofResp{Proof: p})
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.Put(frame)
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var out ProofResp
	if err := DecodeBody(env, &out); err != nil {
		t.Fatal(err)
	}
	return out.Proof
}

// plainDecode decodes p's proof layout with the table out of the path.
func plainDecode(t testing.TB, p *core.Proof) *core.Proof {
	t.Helper()
	var w bwriter
	w.proof(p)
	r := breader{buf: w.buf}
	out := r.proof(0)
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	return out
}

func marshal(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cloneDelegation copies d through JSON: a fresh value with no ID memo,
// safe to alter.
func cloneDelegation(t testing.TB, d *core.Delegation) *core.Delegation {
	t.Helper()
	var c core.Delegation
	if err := json.Unmarshal([]byte(marshal(t, d)), &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// oneStep wraps d in a one-step proof. The decoder checks layout, not
// signatures, so d need not verify.
func oneStep(d *core.Delegation) *core.Proof {
	return &core.Proof{Subject: d.Subject, Object: d.Object, Steps: []core.ProofStep{{Delegation: d}}}
}

// stepDelegations lists a proof's delegations, support proofs' included,
// in encoding order.
func stepDelegations(p *core.Proof) []*core.Delegation {
	var out []*core.Delegation
	for _, st := range p.Steps {
		out = append(out, st.Delegation)
		for _, sp := range st.Support {
			out = append(out, stepDelegations(sp)...)
		}
	}
	return out
}

func TestDelegationTableSharesDecodes(t *testing.T) {
	p, _, _ := fixtureProof(t)
	first := tableDecode(t, p)
	before := StatsSnapshot()
	second := tableDecode(t, p)
	after := StatsSnapshot()

	a, b := stepDelegations(first), stepDelegations(second)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("decoded %d and %d delegations, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("delegation %d: two decodes of one reply hold distinct copies", i)
		}
	}
	if hits, misses := after.DelegationHits-before.DelegationHits, after.DelegationMisses-before.DelegationMisses; hits != 3 || misses != 0 {
		t.Errorf("second decode counted %d hits, %d misses; want 3, 0", hits, misses)
	}
	if got, want := marshal(t, second), marshal(t, p); got != want {
		t.Errorf("shared decode differs from the proof sent:\n got %s\nwant %s", got, want)
	}
	// The shared copies are whole: signatures still verify.
	for i, d := range b {
		if err := d.Verify(); err != nil {
			t.Errorf("delegation %d: %v", i, err)
		}
	}
}

// One byte apart is another delegation: a differing signature byte (the
// set is picked by the signature's tail, so this one lands in the same
// set), nonce or discovery tag decodes to its own, correct value, and the
// original's entry is not disturbed.
func TestDelegationTableDistinguishesBytes(t *testing.T) {
	p, _, _ := fixtureProof(t)
	base := cloneDelegation(t, p.Steps[0].Delegation)
	base.SubjectTag = &core.DiscoveryTag{Home: "wallet.maria:7100", AuthRole: base.Object, TTL: time.Minute}
	variants := map[string]func(d *core.Delegation){
		"signature": func(d *core.Delegation) { d.Signature[20] ^= 1 },
		"nonce":     func(d *core.Delegation) { d.Nonce++ },
		"tag":       func(d *core.Delegation) { d.SubjectTag.Home = "wallet.mark:7100" },
	}
	orig := tableDecode(t, oneStep(base)).Steps[0].Delegation
	for name, alter := range variants {
		v := cloneDelegation(t, base)
		alter(v)
		got := tableDecode(t, oneStep(v)).Steps[0].Delegation
		if got == orig {
			t.Errorf("%s: altered delegation decoded to the original's shared copy", name)
		}
		if marshal(t, got) != marshal(t, v) {
			t.Errorf("%s: decoded %s, want %s", name, marshal(t, got), marshal(t, v))
		}
		again := tableDecode(t, oneStep(base)).Steps[0].Delegation
		if marshal(t, again) != marshal(t, base) {
			t.Errorf("%s: original decodes as %s after the variant", name, marshal(t, again))
		}
	}
}

// A delegation whose encoding exceeds tableMaxSpan is decoded afresh every
// time and never counted.
func TestDelegationTableBypassesLongSpans(t *testing.T) {
	p, _, _ := fixtureProof(t)
	big := cloneDelegation(t, p.Steps[0].Delegation)
	for i := 0; i < 64; i++ {
		big.Attributes = append(big.Attributes, core.AttributeSetting{
			Attr:  core.AttributeRef{Namespace: big.Object.Namespace, Name: fmt.Sprintf("quota-%02d", i)},
			Op:    core.OpSubtract,
			Value: float64(i),
		})
	}
	var w bwriter
	w.delegation(big)
	if len(w.buf) <= tableMaxSpan+1 {
		t.Fatalf("test delegation spans %d bytes, not over %d", len(w.buf)-1, tableMaxSpan)
	}
	before := StatsSnapshot()
	a := tableDecode(t, oneStep(big)).Steps[0].Delegation
	b := tableDecode(t, oneStep(big)).Steps[0].Delegation
	after := StatsSnapshot()
	if a == b {
		t.Error("a span over tableMaxSpan was shared")
	}
	if after.DelegationHits != before.DelegationHits || after.DelegationMisses != before.DelegationMisses {
		t.Errorf("bypassed spans were counted: %+v → %+v", before, after)
	}
	if marshal(t, a) != marshal(t, big) || marshal(t, b) != marshal(t, big) {
		t.Error("a bypassed span decoded differently from the delegation sent")
	}
}

// Whether a delegation is decoded into the table (a miss) or found there (a
// hit), the proof marshals exactly as one decoded without the table.
func TestDelegationTableMatchesPlainDecode(t *testing.T) {
	p, _, _ := fixtureProof(t)
	tagged := cloneDelegation(t, p.Steps[0].Delegation)
	tagged.SubjectTag = &core.DiscoveryTag{Home: "h:1", AuthRole: tagged.Object, TTL: time.Second, Subject: 1, Object: 2}
	tagged.ObjectTag = &core.DiscoveryTag{Home: "h:2", AuthRole: tagged.Object}
	tagged.IssuerTag = &core.DiscoveryTag{Home: "h:3", AuthRole: tagged.Object, TTL: -1}
	tagged.ActingAs = []core.Role{tagged.Object, p.Steps[0].Support[0].Object}
	tagged.DepthLimit = 3
	tagged.SubjectEntity = &core.Entity{Name: "Maria", Key: p.Steps[0].Delegation.Issuer.Key}
	for name, proof := range map[string]*core.Proof{"fixture": p, "every field": oneStep(tagged)} {
		want := marshal(t, plainDecode(t, proof))
		if want != marshal(t, proof) {
			t.Fatalf("%s: plain decode does not round-trip", name)
		}
		for _, pass := range []string{"miss", "hit"} {
			if got := marshal(t, tableDecode(t, proof)); got != want {
				t.Errorf("%s, %s: table decode %s, plain decode %s", name, pass, got, want)
			}
		}
	}
}

// Many goroutines decode delegations forced into one set — one signature,
// sixteen nonces, four ways — so lookups race stores and evictions. Run
// under -race: every decode must still yield its own delegation.
func TestDelegationTableOneSetRaces(t *testing.T) {
	p, _, _ := fixtureProof(t)
	const kinds, workers, rounds = 16, 8, 1000
	frames := make([][]byte, kinds)
	want := make([]string, kinds)
	var tail []byte
	for i := range frames {
		d := cloneDelegation(t, p.Steps[0].Delegation)
		d.Nonce = uint64(i)
		var w bwriter
		w.delegation(d)
		if tail == nil {
			tail = w.buf[len(w.buf)-8:]
		} else if !bytes.Equal(tail, w.buf[len(w.buf)-8:]) {
			t.Fatal("spans do not share their last 8 bytes")
		}
		frame, err := (Codec{}).Encode(TProof, 1, ProofResp{Proof: oneStep(d)})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = append([]byte(nil), frame...)
		bufpool.Put(frame)
		want[i] = marshal(t, d)
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				i := (n*7 + g*5) % kinds
				env, err := (Codec{}).Decode(frames[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				var out ProofResp
				if err := DecodeBody(env, &out); err != nil {
					errs <- err.Error()
					return
				}
				got, _ := json.Marshal(out.Proof.Steps[0].Delegation)
				if string(got) != want[i] {
					errs <- fmt.Sprintf("nonce %d decoded as %s", i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	var failed []string
	for e := range errs {
		failed = append(failed, e)
	}
	if len(failed) > 0 {
		t.Fatal(strings.Join(failed, "\n"))
	}
}
