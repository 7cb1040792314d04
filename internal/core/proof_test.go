package core

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestProofTable1MariaIsMember(t *testing.T) {
	f := newFixture(t)
	d1, d2, d3 := f.table1(t)
	sup := f.markSupport(t, d1, d2)

	// Delegations (1)+(2) prove Mark => BigISP.member', the support proof
	// for third-party delegation (3); together they prove
	// Maria => BigISP.member (§3.1.2).
	proof, err := NewProof(ProofStep{Delegation: d3, Support: []*Proof{sup}})
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Validate(ValidateOptions{At: f.Now}); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !proof.Subject.IsEntity() || proof.Subject.Entity != f.Maria.ID() {
		t.Fatalf("subject = %v", proof.Subject)
	}
	if proof.Object != NewRole(f.BigISP.ID(), "member") {
		t.Fatalf("object = %v", proof.Object)
	}
}

func TestProofSupportProofValidatesAlone(t *testing.T) {
	f := newFixture(t)
	d1, d2, _ := f.table1(t)
	sup := f.markSupport(t, d1, d2)
	if err := sup.Validate(ValidateOptions{At: f.Now}); err != nil {
		t.Fatalf("support proof invalid: %v", err)
	}
	if sup.Object != NewRole(f.BigISP.ID(), "member").Assignment() {
		t.Fatalf("support object = %v", sup.Object)
	}
}

func TestProofThirdPartyWithoutSupportFails(t *testing.T) {
	f := newFixture(t)
	_, _, d3 := f.table1(t)
	proof, err := NewProof(ProofStep{Delegation: d3})
	if err != nil {
		t.Fatal(err)
	}
	err = proof.Validate(ValidateOptions{At: f.Now})
	var missing *MissingSupportError
	if !errors.As(err, &missing) {
		t.Fatalf("want MissingSupportError, got %v", err)
	}
	if missing.Need != NewRole(f.BigISP.ID(), "member").Assignment() {
		t.Fatalf("missing role = %v", missing.Need)
	}
}

func TestProofWrongSupportFails(t *testing.T) {
	f := newFixture(t)
	d1, _, d3 := f.table1(t)
	// d1 alone proves Mark => BigISP.memberServices, not member'.
	wrong, err := NewProof(ProofStep{Delegation: d1})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := NewProof(ProofStep{Delegation: d3, Support: []*Proof{wrong}})
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Validate(ValidateOptions{At: f.Now}); err == nil {
		t.Fatal("support proof for the wrong role should not authorize")
	}
}

func TestProofBrokenChainFails(t *testing.T) {
	f := newFixture(t)
	d1, d2, _ := f.table1(t)
	// d1 grants memberServices to entity Mark; chaining d1 then d2 is fine
	// (d2's subject is the role memberServices). Break it by swapping.
	p := &Proof{
		Subject: d2.Subject,
		Object:  d1.Object,
		Steps:   []ProofStep{{Delegation: d2}, {Delegation: d1}},
	}
	err := p.Validate(ValidateOptions{At: f.Now})
	var chain *ChainError
	if !errors.As(err, &chain) {
		t.Fatalf("want ChainError, got %v", err)
	}
}

func TestProofEntityInInteriorFails(t *testing.T) {
	f := newFixture(t)
	// [X -> role] then [entity -> ...] cannot chain: interior subjects must
	// be roles (§3.1.1).
	dA := f.parseIssue(t, "[BigISP.member -> AirNet.member] AirNet")
	dB := f.parseIssue(t, "[Maria -> BigISP.other] BigISP")
	p := &Proof{
		Subject: dA.Subject,
		Object:  dB.Object,
		Steps:   []ProofStep{{Delegation: dA}, {Delegation: dB}},
	}
	var chain *ChainError
	if err := p.Validate(ValidateOptions{At: f.Now}); !errors.As(err, &chain) {
		t.Fatalf("want ChainError for entity interior subject, got %v", err)
	}
}

func TestProofEmptyFails(t *testing.T) {
	p := &Proof{}
	if err := p.Validate(ValidateOptions{}); err == nil {
		t.Fatal("empty proof must not validate")
	}
	if _, err := NewProof(); err == nil {
		t.Fatal("NewProof() with no steps must fail")
	}
}

func TestProofExpiredDelegationFails(t *testing.T) {
	f := newFixture(t)
	d := f.issue(t, f.BigISP, Template{
		Subject:       SubjectEntity(f.Maria.ID()),
		SubjectEntity: ptr(f.Maria.Entity()),
		Object:        NewRole(f.BigISP.ID(), "member"),
		Expiry:        f.Now.Add(time.Minute),
	})
	proof, err := NewProof(ProofStep{Delegation: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Validate(ValidateOptions{At: f.Now}); err != nil {
		t.Fatalf("fresh delegation: %v", err)
	}
	err = proof.Validate(ValidateOptions{At: f.Now.Add(time.Hour)})
	var expired *ExpiredError
	if !errors.As(err, &expired) {
		t.Fatalf("want ExpiredError, got %v", err)
	}
}

func TestProofRevokedDelegationFails(t *testing.T) {
	f := newFixture(t)
	d1, d2, d3 := f.table1(t)
	sup := f.markSupport(t, d1, d2)
	proof, err := NewProof(ProofStep{Delegation: d3, Support: []*Proof{sup}})
	if err != nil {
		t.Fatal(err)
	}
	revokedID := d2.ID() // revoke deep inside the support proof
	err = proof.Validate(ValidateOptions{
		At:      f.Now,
		Revoked: func(id DelegationID) bool { return id == revokedID },
	})
	if !errors.Is(err, ErrRevoked) {
		t.Fatalf("want ErrRevoked (support delegation revoked), got %v", err)
	}
}

// ValidateAdmitted differs from Validate in signatures alone: a proof whose
// support carries a bad signature passes it, and a revocation deep in the
// support or a missing support proof fails both the same way.
func TestValidateAdmittedSkipsOnlySignatures(t *testing.T) {
	f := newFixture(t)
	d1, d2, d3 := f.table1(t)
	d1.Signature = append([]byte(nil), d1.Signature...)
	d1.Signature[0] ^= 1
	proof, err := NewProof(ProofStep{Delegation: d3, Support: []*Proof{f.markSupport(t, d1, d2)}})
	if err != nil {
		t.Fatal(err)
	}
	opts := ValidateOptions{At: f.Now}
	var sigErr *SignatureError
	if err := proof.Validate(opts); !errors.As(err, &sigErr) {
		t.Fatalf("Validate = %v, want a *SignatureError", err)
	}
	if err := proof.ValidateAdmitted(opts); err != nil {
		t.Fatalf("ValidateAdmitted = %v, want nil", err)
	}

	revokedID := d2.ID()
	opts.Revoked = func(id DelegationID) bool { return id == revokedID }
	d1.Signature[0] ^= 1 // genuine again, so Validate reaches the revocation
	if a, v := proof.ValidateAdmitted(opts), proof.Validate(opts); !errors.Is(a, ErrRevoked) || v == nil || a.Error() != v.Error() {
		t.Fatalf("revoked support: ValidateAdmitted = %v, Validate = %v; want the same ErrRevoked", a, v)
	}

	bare, err := NewProof(ProofStep{Delegation: d3})
	if err != nil {
		t.Fatal(err)
	}
	var missing *MissingSupportError
	if a, v := bare.ValidateAdmitted(opts), bare.Validate(opts); !errors.As(a, &missing) || v == nil || a.Error() != v.Error() {
		t.Fatalf("no support: ValidateAdmitted = %v, Validate = %v; want the same MissingSupportError", a, v)
	}
}

func TestProofDepthLimit(t *testing.T) {
	f := newFixture(t)
	d1, d2, d3 := f.table1(t)
	sup := f.markSupport(t, d1, d2)
	proof, err := NewProof(ProofStep{Delegation: d3, Support: []*Proof{sup}})
	if err != nil {
		t.Fatal(err)
	}
	err = proof.Validate(ValidateOptions{At: f.Now, MaxDepth: 1})
	if !errors.Is(err, ErrProofDepth) {
		t.Fatalf("want ErrProofDepth at MaxDepth=1, got %v", err)
	}
	if err := proof.Validate(ValidateOptions{At: f.Now, MaxDepth: 2}); err != nil {
		t.Fatalf("MaxDepth=2 should suffice: %v", err)
	}
}

func TestProofStrictAttributesRequireRights(t *testing.T) {
	f := newFixture(t)
	bw := AttributeRef{Namespace: f.AirNet.ID(), Name: "BW"}

	// Sheila holds AirNet.member' via mktg, but no BW right yet.
	dMktg := f.parseIssue(t, "[Sheila -> AirNet.mktg] AirNet")
	dAssign := f.parseIssue(t, "[AirNet.mktg -> AirNet.member'] AirNet")
	roleSup, err := NewProof(ProofStep{Delegation: dMktg}, ProofStep{Delegation: dAssign})
	if err != nil {
		t.Fatal(err)
	}

	d := f.issue(t, f.Sheila, Template{
		Subject:    SubjectRole(NewRole(f.BigISP.ID(), "member")),
		Object:     NewRole(f.AirNet.ID(), "member"),
		Attributes: []AttributeSetting{{Attr: bw, Op: OpMinimum, Value: 100}},
	})
	proof := &Proof{
		Subject: d.Subject,
		Object:  d.Object,
		Steps:   []ProofStep{{Delegation: d, Support: []*Proof{roleSup}}},
	}

	// Lax mode: role support suffices.
	if err := proof.Validate(ValidateOptions{At: f.Now}); err != nil {
		t.Fatalf("lax validation: %v", err)
	}
	// Strict mode: the BW right is missing.
	err = proof.Validate(ValidateOptions{At: f.Now, StrictAttributes: true})
	var missing *MissingSupportError
	if !errors.As(err, &missing) {
		t.Fatalf("want MissingSupportError for BW right, got %v", err)
	}

	// Add the attribute right (Table 2 delegation (5) pattern) and retry.
	dAttr := f.parseIssue(t, "[AirNet.mktg -> AirNet.BW <= '] AirNet")
	attrSup, err := NewProof(ProofStep{Delegation: dMktg}, ProofStep{Delegation: dAttr})
	if err != nil {
		t.Fatal(err)
	}
	proof.Steps[0].Support = append(proof.Steps[0].Support, attrSup)
	if err := proof.Validate(ValidateOptions{At: f.Now, StrictAttributes: true}); err != nil {
		t.Fatalf("strict validation with attr right: %v", err)
	}
}

func TestProofConstraints(t *testing.T) {
	f := newFixture(t)
	bw := AttributeRef{Namespace: f.AirNet.ID(), Name: "BW"}
	d := f.issue(t, f.AirNet, Template{
		Subject:       SubjectEntity(f.Maria.ID()),
		SubjectEntity: ptr(f.Maria.Entity()),
		Object:        NewRole(f.AirNet.ID(), "access"),
		Attributes:    []AttributeSetting{{Attr: bw, Op: OpMinimum, Value: 100}},
	})
	proof, err := NewProof(ProofStep{Delegation: d})
	if err != nil {
		t.Fatal(err)
	}
	ok := ValidateOptions{At: f.Now, Constraints: []Constraint{
		{Attr: bw, Base: math.Inf(1), Minimum: 100},
	}}
	if err := proof.Validate(ok); err != nil {
		t.Fatalf("satisfiable constraint rejected: %v", err)
	}
	tight := ValidateOptions{At: f.Now, Constraints: []Constraint{
		{Attr: bw, Base: math.Inf(1), Minimum: 101},
	}}
	err = proof.Validate(tight)
	var ce *ConstraintError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConstraintError, got %v", err)
	}
	if ce.Value != 100 {
		t.Fatalf("constraint error value = %v", ce.Value)
	}
}

func TestProofConcat(t *testing.T) {
	f := newFixture(t)
	dA := f.parseIssue(t, "[Maria -> BigISP.member] BigISP")
	dB := f.parseIssue(t, "[BigISP.member -> AirNet.member] AirNet")
	pA, err := NewProof(ProofStep{Delegation: dA})
	if err != nil {
		t.Fatal(err)
	}
	pB, err := NewProof(ProofStep{Delegation: dB})
	if err != nil {
		t.Fatal(err)
	}
	joined, err := pA.Concat(pB)
	if err != nil {
		t.Fatal(err)
	}
	if err := joined.Validate(ValidateOptions{At: f.Now}); err != nil {
		t.Fatalf("joined proof: %v", err)
	}
	if joined.Len() != 2 {
		t.Fatalf("Len = %d", joined.Len())
	}
	if _, err := pB.Concat(pA); err == nil {
		t.Fatal("mismatched concat should fail")
	}
}

func TestProofDelegationsDeduplicates(t *testing.T) {
	f := newFixture(t)
	d1, d2, d3 := f.table1(t)
	sup := f.markSupport(t, d1, d2)
	// Attach the same support twice; Delegations must deduplicate. A nil
	// support proof, which the wire can carry, holds nothing.
	proof, err := NewProof(ProofStep{Delegation: d3, Support: []*Proof{sup, sup, nil}})
	if err != nil {
		t.Fatal(err)
	}
	all := proof.Delegations()
	if len(all) != 3 {
		t.Fatalf("Delegations() = %d entries, want 3", len(all))
	}
}

func TestProofAggregateAcrossChain(t *testing.T) {
	f := newFixture(t)
	bw := AttributeRef{Namespace: f.AirNet.ID(), Name: "BW"}
	dA := f.parseIssue(t, "[Maria -> AirNet.member with AirNet.BW <= 100] AirNet")
	dB := f.parseIssue(t, "[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet")
	pA, _ := NewProof(ProofStep{Delegation: dA})
	pB, _ := NewProof(ProofStep{Delegation: dB})
	joined, err := pA.Concat(pB)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := joined.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.Value(bw, math.Inf(1)); got != 100 {
		t.Fatalf("BW along chain = %v, want min(100,200)=100", got)
	}
}

func TestProofStringRenders(t *testing.T) {
	f := newFixture(t)
	d1, d2, d3 := f.table1(t)
	sup := f.markSupport(t, d1, d2)
	proof, err := NewProof(ProofStep{Delegation: d3, Support: []*Proof{sup}})
	if err != nil {
		t.Fatal(err)
	}
	if proof.String() == "" {
		t.Fatal("String() empty")
	}
	out := Printer{Dir: f.Dir}.Proof(proof)
	if out == "" {
		t.Fatal("Printer.Proof empty")
	}
}
