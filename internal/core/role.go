package core

import (
	"fmt"
	"strings"
)

// Role names a class of permissions inside an entity's namespace (§2).
//
// A tick mark (Tick > 0) denotes a right-of-assignment role: R' is the right
// to delegate R, R” the right to delegate R', and so on (§3.1.2 treats the
// right of assignment "as if it were just another role itself").
//
// When Attr is true, the role names the right to set a valued attribute in
// future delegations (Table 2, "Delegation of Assignment for Valued
// Attributes"): the attribute itself is not a role, but the right to set it
// is, so such roles always carry Tick >= 1 and record the attribute's bound
// operator.
type Role struct {
	// Namespace is the entity whose namespace contains the role.
	Namespace EntityID
	// Name is the local name inside the namespace.
	Name string
	// Tick counts right-of-assignment marks (').
	Tick int
	// Attr marks attribute-assignment roles.
	Attr bool
	// Op is the operator bound to the attribute; meaningful only when Attr.
	Op Operator
}

// NewRole builds a plain privilege role Namespace.Name.
func NewRole(ns EntityID, name string) Role {
	return Role{Namespace: ns, Name: name}
}

// Assignment returns the right-of-assignment role for r (one more tick).
func (r Role) Assignment() Role {
	r.Tick++
	return r
}

// Base returns r with one tick removed. Calling Base on an untick'd role
// returns it unchanged.
func (r Role) Base() Role {
	if r.Tick > 0 {
		r.Tick--
	}
	return r
}

// IsAssignment reports whether r is a right-of-assignment role.
func (r Role) IsAssignment() bool { return r.Tick > 0 }

// IsZero reports whether r is the zero role.
func (r Role) IsZero() bool { return r.Namespace == "" && r.Name == "" }

// Validate checks structural well-formedness.
func (r Role) Validate() error {
	if !r.Namespace.Valid() {
		return fmt.Errorf("role %q: invalid namespace %q", r.Name, r.Namespace)
	}
	if r.Name == "" {
		return fmt.Errorf("role in namespace %s: empty name", r.Namespace.Short())
	}
	if strings.ContainsAny(r.Name, " .[]<>'\n\t") {
		return fmt.Errorf("role name %q contains reserved characters", r.Name)
	}
	if r.Tick < 0 {
		return fmt.Errorf("role %q: negative tick", r.Name)
	}
	if r.Attr {
		if r.Tick < 1 {
			return fmt.Errorf("attribute-assignment role %q must carry at least one tick", r.Name)
		}
		if !r.Op.Valid() {
			return fmt.Errorf("attribute-assignment role %q: invalid operator", r.Name)
		}
	}
	if !r.Attr && r.Op != 0 {
		return fmt.Errorf("role %q: operator set on non-attribute role", r.Name)
	}
	return nil
}

// String renders the role with the namespace fingerprint abbreviated, e.g.
// "a1b2c3d4.member'". Use Printer for name-resolved rendering.
func (r Role) String() string {
	ns, op := r.Namespace.Short(), ""
	n := len(ns) + 1 + len(r.Name) + max(r.Tick, 0)
	if r.Attr {
		op = r.Op.String()
		n += len(op) + 2
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(ns)
	b.WriteByte('.')
	b.WriteString(r.Name)
	if r.Attr {
		b.WriteByte(' ')
		b.WriteString(op)
		b.WriteByte('=')
	}
	for range r.Tick {
		b.WriteByte('\'')
	}
	return b.String()
}

// Subject identifies the grantee of a delegation: either a bare entity or a
// role (§3.1.1). The zero Subject is invalid. Subject is comparable and is
// used directly as a vertex key in delegation graphs.
type Subject struct {
	// Entity is set (and Role zero) for entity subjects.
	Entity EntityID
	// Role is set (and Entity empty) for role subjects.
	Role Role
}

// SubjectEntity builds an entity subject.
func SubjectEntity(id EntityID) Subject { return Subject{Entity: id} }

// SubjectRole builds a role subject.
func SubjectRole(r Role) Subject { return Subject{Role: r} }

// IsEntity reports whether the subject is a bare entity.
func (s Subject) IsEntity() bool { return s.Entity != "" }

// IsZero reports whether the subject is unset.
func (s Subject) IsZero() bool { return s.Entity == "" && s.Role.IsZero() }

// Validate checks structural well-formedness.
func (s Subject) Validate() error {
	switch {
	case s.IsZero():
		return fmt.Errorf("empty subject")
	case s.Entity != "" && !s.Role.IsZero():
		return fmt.Errorf("subject is both entity and role")
	case s.Entity != "":
		if !s.Entity.Valid() {
			return fmt.Errorf("subject entity %q: invalid fingerprint", s.Entity)
		}
		return nil
	default:
		return s.Role.Validate()
	}
}

// String renders the subject.
func (s Subject) String() string {
	if s.IsEntity() {
		return s.Entity.Short()
	}
	return s.Role.String()
}
