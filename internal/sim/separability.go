package sim

// The expressiveness comparison behind §3.1.3: dRBAC's third-party
// delegation versus the SDSI/SPKI/RT0-style workaround in which a partner
// must mint a "phantom" local role mirroring each foreign privilege it wants
// to hand out.
//
// Both idioms are constructed with real signed delegations and checked by
// proving every member's access through a wallet, so the experiment
// (EXP-S4) counts what each approach actually had to create rather than
// evaluating a formula.

import (
	"fmt"
	"time"

	"drbac/internal/core"
	"drbac/internal/wallet"
)

// Separability shapes one coalition: a resource owner controlling Privileges
// roles, Partners partner organizations, and MembersPerPartner members per
// partner who must each receive every privilege.
type Separability struct {
	Partners          int
	Privileges        int
	MembersPerPartner int
}

// Validate checks scenario sanity.
func (s Separability) Validate() error {
	if s.Partners <= 0 || s.Privileges <= 0 || s.MembersPerPartner <= 0 {
		return fmt.Errorf("sim: all separability dimensions must be positive")
	}
	return nil
}

// SeparabilityOutcome reports what one idiom had to create.
type SeparabilityOutcome struct {
	// RolesCreated counts distinct role names minted across all
	// namespaces, the paper's "namespace pollution" metric.
	RolesCreated int
	// PhantomRoles counts minted roles that merely mirror a foreign
	// privilege (zero for dRBAC).
	PhantomRoles int
	// Delegations counts signed certificates issued.
	Delegations int
	// ProofsVerified counts member-access proofs that validated (must be
	// Partners × MembersPerPartner × Privileges for both idioms).
	ProofsVerified int
	// Separable reports whether a partner admin can delegate an individual
	// privilege without receiving or re-aggregating the others (§3.1.3's
	// separability property).
	Separable bool
}

// coalition is one scenario: its identities, the wallet both idioms issue
// into, and what the idiom under test had to create.
type coalition struct {
	owner      *core.Identity
	partners   []*core.Identity // partner admin entities
	members    [][]*core.Identity
	privileges []core.Role
	now        time.Time
	store      *wallet.Wallet
	roles      map[core.Role]bool // every role minted, the privileges included
	out        SeparabilityOutcome
}

func newCoalition(s Separability, separable bool) (*coalition, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	world := NewWorld()
	c := &coalition{
		owner: world.Identity("owner"),
		now:   world.Clock.Now(),
		store: wallet.New(wallet.Config{}),
		roles: make(map[core.Role]bool),
		out:   SeparabilityOutcome{Separable: separable},
	}
	for k := 0; k < s.Privileges; k++ {
		c.privileges = append(c.privileges, c.mint(core.NewRole(c.owner.ID(), fmt.Sprintf("priv%d", k))))
	}
	for p := 0; p < s.Partners; p++ {
		c.partners = append(c.partners, world.Identity(fmt.Sprintf("partner%d", p)))
		var ms []*core.Identity
		for m := 0; m < s.MembersPerPartner; m++ {
			ms = append(ms, world.Identity(fmt.Sprintf("p%dm%d", p, m)))
		}
		c.members = append(c.members, ms)
	}
	return c, nil
}

// mint records a role the idiom had to create.
func (c *coalition) mint(r core.Role) core.Role {
	c.roles[r] = true
	return r
}

// grant issues tmpl as issuer into the coalition's wallet.
func (c *coalition) grant(issuer *core.Identity, tmpl core.Template) error {
	d, err := core.Issue(issuer, tmpl, c.now)
	if err != nil {
		return err
	}
	if err := c.store.Publish(d); err != nil {
		return err
	}
	c.out.Delegations++
	return nil
}

// SeparabilityDRBAC builds the coalition with third-party delegation (§3.1.2): the
// owner mints one admin role per partner and grants it the
// right-of-assignment for each privilege; partner admins then delegate the
// owner's privileges directly, with support proofs, minting no roles of
// their own.
func SeparabilityDRBAC(s Separability) (SeparabilityOutcome, error) {
	c, err := newCoalition(s, true)
	if err != nil {
		return SeparabilityOutcome{}, err
	}
	for p, admin := range c.partners {
		adminRole := c.mint(core.NewRole(c.owner.ID(), fmt.Sprintf("admin%d", p)))
		// [admin -> owner.adminP] owner
		if err := c.grant(c.owner, entityGrant(admin, adminRole)); err != nil {
			return SeparabilityOutcome{}, err
		}
		for _, priv := range c.privileges {
			// [owner.adminP -> owner.privK'] owner — the grouped
			// assignment rights that make the admin role separable.
			if err := c.grant(c.owner, core.Template{Subject: core.SubjectRole(adminRole), Object: priv.Assignment()}); err != nil {
				return SeparabilityOutcome{}, err
			}
		}
		for _, member := range c.members[p] {
			for _, priv := range c.privileges {
				// Third-party: [member -> owner.privK] admin, supported by
				// the wallet-derivable chain admin => owner.privK'.
				if err := c.grant(admin, entityGrant(member, priv)); err != nil {
					return SeparabilityOutcome{}, err
				}
			}
		}
	}
	return c.verifyAccess()
}

// SeparabilityPhantomRole builds the same coalition the SDSI/SPKI/RT0 way: the owner
// cannot hand out a right-of-assignment on its own roles, so for every
// partner × privilege pair the partner mints a local phantom role
// mirroring the privilege, the owner grants the owner-privilege to that
// phantom role, and the partner (who controls its own namespace) delegates
// the phantom role to members.
func SeparabilityPhantomRole(s Separability) (SeparabilityOutcome, error) {
	// A catch-all phantom role aggregating several privileges would not be
	// decomposable per privilege — the §3.1.3 separability loss — so a
	// faithful baseline needs one phantom per privilege.
	c, err := newCoalition(s, false)
	if err != nil {
		return SeparabilityOutcome{}, err
	}
	for p, admin := range c.partners {
		for k, priv := range c.privileges {
			phantom := c.mint(core.NewRole(admin.ID(), fmt.Sprintf("owner_priv%d", k)))
			c.out.PhantomRoles++
			// [partner.owner_privK -> owner.privK] owner (self-certified
			// by the owner: the object is in the owner's namespace).
			if err := c.grant(c.owner, core.Template{Subject: core.SubjectRole(phantom), Object: priv}); err != nil {
				return SeparabilityOutcome{}, err
			}
			for _, member := range c.members[p] {
				// [member -> partner.owner_privK] partner (self-certified
				// in the partner's own namespace).
				if err := c.grant(admin, entityGrant(member, phantom)); err != nil {
					return SeparabilityOutcome{}, err
				}
			}
		}
	}
	return c.verifyAccess()
}

// verifyAccess proves every member holds every privilege and completes the
// outcome.
func (c *coalition) verifyAccess() (SeparabilityOutcome, error) {
	for p := range c.partners {
		for _, member := range c.members[p] {
			for _, priv := range c.privileges {
				proof, err := c.store.QueryDirect(wallet.Query{
					Subject: core.SubjectEntity(member.ID()),
					Object:  priv,
				})
				if err != nil {
					return SeparabilityOutcome{}, fmt.Errorf("member %s lacks %s: %w", member.Name(), priv, err)
				}
				if err := proof.Validate(core.ValidateOptions{At: c.now}); err != nil {
					return SeparabilityOutcome{}, err
				}
				c.out.ProofsVerified++
			}
		}
	}
	c.out.RolesCreated = len(c.roles)
	return c.out, nil
}

// RunSeparability builds the coalition both ways (EXP-S4).
func RunSeparability(s Separability) (drbac, phantom SeparabilityOutcome, err error) {
	if drbac, err = SeparabilityDRBAC(s); err == nil {
		phantom, err = SeparabilityPhantomRole(s)
	}
	return drbac, phantom, err
}

func separabilityReport(r *Report) error {
	r.printf("%9s %11s | %7s %9s | %7s %9s", "partners", "privileges", "dRBAC", "phantoms", "baseline", "phantoms")
	for _, partners := range []int{2, 4, 8} {
		for _, privs := range []int{4, 8} {
			d, ph, err := RunSeparability(Separability{Partners: partners, Privileges: privs, MembersPerPartner: 2})
			if err != nil {
				return err
			}
			r.printf("%9d %11d | %7d %9d | %8d %9d",
				partners, privs, d.RolesCreated, d.PhantomRoles, ph.RolesCreated, ph.PhantomRoles)
		}
	}
	r.printf("dRBAC roles = privileges + one admin role per partner; baseline mints")
	r.printf("partners x privileges phantom roles and loses separability.")
	return nil
}
