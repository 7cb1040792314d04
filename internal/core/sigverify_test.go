package core

import (
	"errors"
	"testing"

	"drbac/internal/sigcache"
)

// table3Proof assembles the full §5 / Table 3 proof Maria => AirNet.access:
// three primary steps, the middle one carrying Sheila's two-step
// right-of-assignment support proof — five signatures in total.
func table3Proof(t *testing.T, f *fixture) *Proof {
	t.Helper()
	d1 := f.parseIssue(t, "[Maria -> BigISP.member] BigISP")
	d3 := f.parseIssue(t, "[Sheila -> AirNet.mktg] AirNet")
	d4 := f.parseIssue(t, "[AirNet.mktg -> AirNet.member'] AirNet")
	sup, err := NewProof(ProofStep{Delegation: d3}, ProofStep{Delegation: d4})
	if err != nil {
		t.Fatal(err)
	}
	d2 := f.parseIssue(t,
		"[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20] Sheila")
	d5 := f.parseIssue(t, "[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet")
	p, err := NewProof(
		ProofStep{Delegation: d1},
		ProofStep{Delegation: d2, Support: []*Proof{sup}},
		ProofStep{Delegation: d5},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateWithSigVerifier(t *testing.T) {
	f := newFixture(t)
	p := table3Proof(t, f)
	if err := p.Validate(ValidateOptions{At: f.Now}); err != nil {
		t.Fatalf("baseline validation: %v", err)
	}

	c := sigcache.New(0)
	opts := ValidateOptions{At: f.Now, SigVerifier: c}
	if err := p.Validate(opts); err != nil {
		t.Fatalf("cold validation with verifier: %v", err)
	}
	st := c.Stats()
	if st.Size != 5 {
		t.Errorf("memo holds %d signatures after cold validation, want 5", st.Size)
	}
	if err := p.Validate(opts); err != nil {
		t.Fatalf("warm validation with verifier: %v", err)
	}
	warm := c.Stats()
	if warm.Misses != st.Misses {
		t.Errorf("warm validation ran %d real verifications", warm.Misses-st.Misses)
	}
	if warm.Hits <= st.Hits {
		t.Error("warm validation produced no cache hits")
	}
}

// TestValidateWithVerifierRejectsTamper warms the memo with the valid proof,
// then tampers one support-proof signature: validation must fail with a
// *SignatureError naming the tampered delegation, never serving it warm.
func TestValidateWithVerifierRejectsTamper(t *testing.T) {
	f := newFixture(t)
	p := table3Proof(t, f)
	c := sigcache.New(0)
	opts := ValidateOptions{At: f.Now, SigVerifier: c}
	if err := p.Validate(opts); err != nil {
		t.Fatalf("warming validation: %v", err)
	}

	tampered := p.Steps[1].Support[0].Steps[0].Delegation
	tampered.Signature = append([]byte(nil), tampered.Signature...)
	tampered.Signature[3] ^= 1
	err := p.Validate(opts)
	if err == nil {
		t.Fatal("tampered support signature validated")
	}
	var sigErr *SignatureError
	if !errors.As(err, &sigErr) {
		t.Fatalf("error = %v, want *SignatureError", err)
	}
	if sigErr.ID != tampered.ID() {
		t.Errorf("error names %s, want the tampered delegation %s",
			sigErr.ID.Short(), tampered.ID().Short())
	}
}

func TestVerifyDistinguishesStructureFromSignature(t *testing.T) {
	f := newFixture(t)
	d := f.parseIssue(t, "[Maria -> BigISP.member] BigISP")

	bad := *d
	bad.Signature = append([]byte(nil), d.Signature...)
	bad.Signature[0] ^= 1
	var sigErr *SignatureError
	var structErr *StructureError
	if err := bad.Verify(); !errors.As(err, &sigErr) {
		t.Errorf("tampered signature: err = %v, want *SignatureError", err)
	}
	if err := bad.Verify(); errors.As(err, &structErr) {
		t.Errorf("tampered signature misreported as *StructureError")
	}

	malformed := *d
	malformed.DepthLimit = -1
	if err := malformed.Verify(); !errors.As(err, &structErr) {
		t.Errorf("malformed delegation: err = %v, want *StructureError", err)
	}
	if err := malformed.VerifyWith(sigcache.New(0)); !errors.As(err, &structErr) {
		t.Errorf("malformed via verifier: err = %v, want *StructureError", err)
	}
}
