package core

import (
	"fmt"
	"strings"
	"time"
)

// Proof is a delegation chain demonstrating Subject ⇒ Object, each step
// carrying the recursive support proofs that authorize it (§2, §4.1).
//
// Steps run from the proof's subject towards its object: the first step's
// delegation names the proof subject as its subject; every later step's
// delegation has a role subject equal to the previous step's object; the
// last step's object is the proof object.
type Proof struct {
	Subject Subject     `json:"subject"`
	Object  Role        `json:"object"`
	Steps   []ProofStep `json:"steps"`
}

// ProofStep is one delegation of a chain plus the support proofs that
// authorize it (the issuer's right-of-assignment for third-party
// delegations, and attribute-assignment rights for foreign attribute
// settings).
type ProofStep struct {
	Delegation *Delegation `json:"delegation"`
	Support    []*Proof    `json:"support,omitempty"`
}

// NewProof assembles a proof from ordered steps, deriving subject and
// object from the chain ends.
func NewProof(steps ...ProofStep) (*Proof, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("proof with no steps")
	}
	for i, st := range steps {
		if st.Delegation == nil {
			return nil, fmt.Errorf("proof step %d: nil delegation", i)
		}
	}
	return &Proof{
		Subject: steps[0].Delegation.Subject,
		Object:  steps[len(steps)-1].Delegation.Object,
		Steps:   steps,
	}, nil
}

// Concat joins p with next, which must begin where p ends (next's subject
// role equals p's object). Support proofs are preserved per step.
func (p *Proof) Concat(next *Proof) (*Proof, error) {
	if next.Subject.IsEntity() || next.Subject.Role != p.Object {
		return nil, fmt.Errorf("concat: next proof subject %s does not match object %s", next.Subject, p.Object)
	}
	steps := make([]ProofStep, 0, len(p.Steps)+len(next.Steps))
	steps = append(steps, p.Steps...)
	steps = append(steps, next.Steps...)
	return &Proof{Subject: p.Subject, Object: next.Object, Steps: steps}, nil
}

// Delegations returns every delegation in the proof, including all support
// proofs, depth-first, deduplicated by ID. Proof monitors subscribe to
// exactly this set (§4.2.2). A nil support proof holds nothing, as it
// supports nothing for findSupport.
func (p *Proof) Delegations() []*Delegation {
	seen := make(map[DelegationID]bool)
	var out []*Delegation
	p.visit(seen, &out)
	return out
}

func (p *Proof) visit(seen map[DelegationID]bool, out *[]*Delegation) {
	if p == nil {
		return
	}
	for _, st := range p.Steps {
		id := st.Delegation.ID()
		if !seen[id] {
			seen[id] = true
			*out = append(*out, st.Delegation)
		}
		for _, sup := range st.Support {
			sup.visit(seen, out)
		}
	}
}

// Aggregate accumulates the valued-attribute modifiers along the primary
// chain (support proofs do not modulate the granted permissions).
func (p *Proof) Aggregate() (Aggregate, error) {
	ag := NewAggregate()
	for _, st := range p.Steps {
		if err := ag.AddAll(st.Delegation.Attributes); err != nil {
			return nil, err
		}
	}
	return ag, nil
}

// ValidateOptions parameterizes proof validation.
type ValidateOptions struct {
	// At is the evaluation instant for expiry checks.
	At time.Time
	// Revoked, if non-nil, reports revoked delegations.
	Revoked func(DelegationID) bool
	// StrictAttributes additionally requires support proofs for attribute
	// settings outside the issuer's namespace.
	StrictAttributes bool
	// MaxDepth bounds support-proof recursion; 0 means DefaultMaxDepth.
	MaxDepth int
	// Constraints, if non-empty, must be satisfied by the proof's
	// aggregated attributes.
	Constraints []Constraint
	// SigVerifier, if non-nil, routes every signature check Validate makes
	// through a verified-signature memo (internal/sigcache).
	SigVerifier SigVerifier
}

// DefaultMaxDepth bounds support-proof recursion when ValidateOptions does
// not set one. Real coalition hierarchies are shallow; the bound exists to
// reject maliciously nested credentials.
const DefaultMaxDepth = 16

// Validate checks the proof end to end: chain structure, signatures,
// expiry, revocation, recursive support proofs, attribute monotonicity, and
// query constraints. Every proof that arrives from outside a wallet's graph
// takes this check.
func (p *Proof) Validate(opts ValidateOptions) error {
	return p.check(opts, true)
}

// ValidateAdmitted is Validate without the signature checks, for a proof
// whose every delegation, support proofs included, already had its signature
// verified — one a wallet assembled from its own graph, whose delegations it
// verified on admission, or one it has just verified whole. A delegation is
// immutable, so the verdict stands. Chain linkage, depth limits, expiry,
// revocation, recursive support presence and validity, operator conflicts
// and constraints are checked exactly as Validate checks them;
// opts.SigVerifier is unused.
func (p *Proof) ValidateAdmitted(opts ValidateOptions) error {
	return p.check(opts, false)
}

// check is the body Validate and ValidateAdmitted share; sigs says whether
// each delegation's signature is verified.
func (p *Proof) check(opts ValidateOptions, sigs bool) error {
	depth := opts.MaxDepth
	if depth == 0 {
		depth = DefaultMaxDepth
	}
	if err := p.validate(opts, depth, sigs); err != nil {
		return err
	}
	if len(opts.Constraints) > 0 {
		ag, err := p.Aggregate()
		if err != nil {
			return err
		}
		for _, c := range opts.Constraints {
			if !c.Satisfied(ag) {
				return &ConstraintError{Constraint: c, Value: ag.Value(c.Attr, c.Base)}
			}
		}
	}
	return nil
}

func (p *Proof) validate(opts ValidateOptions, depth int, sigs bool) error {
	if depth <= 0 {
		return ErrProofDepth
	}
	if len(p.Steps) == 0 {
		return &ChainError{Index: 0, Reason: "empty proof"}
	}
	if p.Steps[0].Delegation.Subject != p.Subject {
		return &ChainError{Index: 0, Reason: fmt.Sprintf(
			"first delegation subject %s is not proof subject %s",
			p.Steps[0].Delegation.Subject, p.Subject)}
	}
	last := p.Steps[len(p.Steps)-1].Delegation.Object
	if last != p.Object {
		return &ChainError{Index: len(p.Steps) - 1, Reason: fmt.Sprintf(
			"last delegation object %s is not proof object %s", last, p.Object)}
	}

	ag := NewAggregate()
	for i, st := range p.Steps {
		d := st.Delegation
		if i > 0 {
			// Entity subjects terminate chains (§3.1.1: privileges
			// delegated to an entity may not be further delegated), so
			// every interior step must link role-to-role.
			if d.Subject.IsEntity() {
				return &ChainError{Index: i, Reason: "entity subject in chain interior"}
			}
			prev := p.Steps[i-1].Delegation.Object
			if d.Subject.Role != prev {
				return &ChainError{Index: i, Reason: fmt.Sprintf(
					"subject %s does not follow previous object %s", d.Subject, prev)}
			}
		}
		if d.DepthLimit > 0 {
			if after := len(p.Steps) - 1 - i; after > d.DepthLimit {
				return &ChainError{Index: i, Reason: fmt.Sprintf(
					"delegation limits further delegation to %d steps, but %d follow",
					d.DepthLimit, after)}
			}
		}
		if err := p.validateStep(d, st.Support, opts, depth, sigs); err != nil {
			return err
		}
		if err := ag.AddAll(d.Attributes); err != nil {
			return err
		}
	}
	return nil
}

// validateStep checks one delegation plus its support proofs.
func (p *Proof) validateStep(d *Delegation, support []*Proof, opts ValidateOptions, depth int, sigs bool) error {
	if sigs {
		if err := d.VerifyWith(opts.SigVerifier); err != nil {
			return err
		}
	}
	if !opts.At.IsZero() && d.Expired(opts.At) {
		return &ExpiredError{ID: d.ID(), Expiry: d.Expiry, At: opts.At}
	}
	if opts.Revoked != nil && opts.Revoked(d.ID()) {
		return &RevokedError{ID: d.ID()}
	}
	for _, need := range d.RequiredSupport(opts.StrictAttributes) {
		sup := findSupport(support, d.Issuer.ID(), need)
		if sup == nil {
			return &MissingSupportError{Delegation: d.ID(), Issuer: d.Issuer, Need: need}
		}
		if err := sup.validate(opts, depth-1, sigs); err != nil {
			return fmt.Errorf("support proof for %s: %w", need, err)
		}
	}
	return nil
}

// findSupport locates a support proof granting role need to entity issuer.
func findSupport(support []*Proof, issuer EntityID, need Role) *Proof {
	for _, sp := range support {
		if sp == nil {
			continue
		}
		if sp.Object != need {
			continue
		}
		if sp.Subject.IsEntity() && sp.Subject.Entity == issuer {
			return sp
		}
	}
	return nil
}

// Len returns the primary chain length.
func (p *Proof) Len() int { return len(p.Steps) }

// String renders the proof chain compactly.
func (p *Proof) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s => %s [", p.Subject, p.Object)
	for i, st := range p.Steps {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(st.Delegation.String())
		if len(st.Support) > 0 {
			fmt.Fprintf(&b, " (+%d support)", len(st.Support))
		}
	}
	b.WriteString("]")
	return b.String()
}

// ConstraintError reports a proof whose aggregated attributes violate a
// query constraint.
type ConstraintError struct {
	Constraint Constraint
	Value      float64
}

func (e *ConstraintError) Error() string {
	return fmt.Sprintf("attribute %s evaluates to %s, below required %s",
		e.Constraint.Attr, formatFloat(e.Value), formatFloat(e.Constraint.Minimum))
}
