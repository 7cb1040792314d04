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

// coalition is the set of identities for a scenario.
type coalition struct {
	owner    *core.Identity
	partners []*core.Identity // partner admin entities
	members  [][]*core.Identity
	now      time.Time
}

func newCoalition(s Separability) *coalition {
	world := NewWorld()
	w := &coalition{now: world.Clock.Now(), owner: world.Identity("owner")}
	for p := 0; p < s.Partners; p++ {
		w.partners = append(w.partners, world.Identity(fmt.Sprintf("partner%d", p)))
		var ms []*core.Identity
		for m := 0; m < s.MembersPerPartner; m++ {
			ms = append(ms, world.Identity(fmt.Sprintf("p%dm%d", p, m)))
		}
		w.members = append(w.members, ms)
	}
	return w
}

// SeparabilityDRBAC builds the coalition with third-party delegation (§3.1.2): the
// owner mints one admin role per partner and grants it the
// right-of-assignment for each privilege; partner admins then delegate the
// owner's privileges directly, with support proofs, minting no roles of
// their own.
func SeparabilityDRBAC(s Separability) (SeparabilityOutcome, error) {
	if err := s.Validate(); err != nil {
		return SeparabilityOutcome{}, err
	}
	w := newCoalition(s)
	store := wallet.New(wallet.Config{})
	out := SeparabilityOutcome{Separable: true}
	roles := make(map[core.Role]bool)

	privileges := make([]core.Role, s.Privileges)
	for k := range privileges {
		privileges[k] = core.NewRole(w.owner.ID(), fmt.Sprintf("priv%d", k))
		roles[privileges[k]] = true
	}

	for p, admin := range w.partners {
		adminRole := core.NewRole(w.owner.ID(), fmt.Sprintf("admin%d", p))
		roles[adminRole] = true
		// [admin -> owner.adminP] owner
		d, err := core.Issue(w.owner, core.Template{
			Subject:       core.SubjectEntity(admin.ID()),
			SubjectEntity: entityPtr(admin.Entity()),
			Object:        adminRole,
		}, w.now)
		if err != nil {
			return SeparabilityOutcome{}, err
		}
		if err := store.Publish(d); err != nil {
			return SeparabilityOutcome{}, err
		}
		out.Delegations++

		for _, priv := range privileges {
			// [owner.adminP -> owner.privK'] owner — the grouped
			// assignment rights that make the admin role separable.
			d, err := core.Issue(w.owner, core.Template{
				Subject: core.SubjectRole(adminRole),
				Object:  priv.Assignment(),
			}, w.now)
			if err != nil {
				return SeparabilityOutcome{}, err
			}
			if err := store.Publish(d); err != nil {
				return SeparabilityOutcome{}, err
			}
			out.Delegations++
		}

		for _, member := range w.members[p] {
			for _, priv := range privileges {
				// Third-party: [member -> owner.privK] admin, supported by
				// the wallet-derivable chain admin => owner.privK'.
				d, err := core.Issue(admin, core.Template{
					Subject:       core.SubjectEntity(member.ID()),
					SubjectEntity: entityPtr(member.Entity()),
					Object:        priv,
				}, w.now)
				if err != nil {
					return SeparabilityOutcome{}, err
				}
				if err := store.Publish(d); err != nil {
					return SeparabilityOutcome{}, err
				}
				out.Delegations++
			}
		}
	}

	if err := verifyAccess(store, w, privileges, &out); err != nil {
		return SeparabilityOutcome{}, err
	}
	out.RolesCreated = len(roles)
	out.PhantomRoles = 0
	return out, nil
}

// SeparabilityPhantomRole builds the same coalition the SDSI/SPKI/RT0 way: the owner
// cannot hand out a right-of-assignment on its own roles, so for every
// partner × privilege pair the partner mints a local phantom role
// mirroring the privilege, the owner grants the owner-privilege to that
// phantom role, and the partner (who controls its own namespace) delegates
// the phantom role to members.
func SeparabilityPhantomRole(s Separability) (SeparabilityOutcome, error) {
	if err := s.Validate(); err != nil {
		return SeparabilityOutcome{}, err
	}
	w := newCoalition(s)
	store := wallet.New(wallet.Config{})
	// A catch-all phantom role aggregating several privileges would not be
	// decomposable per privilege — the §3.1.3 separability loss — so a
	// faithful baseline needs one phantom per privilege.
	out := SeparabilityOutcome{Separable: false}
	roles := make(map[core.Role]bool)

	privileges := make([]core.Role, s.Privileges)
	for k := range privileges {
		privileges[k] = core.NewRole(w.owner.ID(), fmt.Sprintf("priv%d", k))
		roles[privileges[k]] = true
	}

	for p, admin := range w.partners {
		for k, priv := range privileges {
			phantom := core.NewRole(admin.ID(), fmt.Sprintf("owner_priv%d", k))
			roles[phantom] = true
			out.PhantomRoles++
			// [partner.owner_privK -> owner.privK] owner (self-certified
			// by the owner: the object is in the owner's namespace).
			d, err := core.Issue(w.owner, core.Template{
				Subject: core.SubjectRole(phantom),
				Object:  priv,
			}, w.now)
			if err != nil {
				return SeparabilityOutcome{}, err
			}
			if err := store.Publish(d); err != nil {
				return SeparabilityOutcome{}, err
			}
			out.Delegations++

			for _, member := range w.members[p] {
				// [member -> partner.owner_privK] partner (self-certified
				// in the partner's own namespace).
				d, err := core.Issue(admin, core.Template{
					Subject:       core.SubjectEntity(member.ID()),
					SubjectEntity: entityPtr(member.Entity()),
					Object:        phantom,
				}, w.now)
				if err != nil {
					return SeparabilityOutcome{}, err
				}
				if err := store.Publish(d); err != nil {
					return SeparabilityOutcome{}, err
				}
				out.Delegations++
			}
		}
	}

	if err := verifyAccess(store, w, privileges, &out); err != nil {
		return SeparabilityOutcome{}, err
	}
	out.RolesCreated = len(roles)
	return out, nil
}

// verifyAccess proves every member holds every privilege.
func verifyAccess(store *wallet.Wallet, w *coalition, privileges []core.Role, out *SeparabilityOutcome) error {
	for p := range w.partners {
		for _, member := range w.members[p] {
			for _, priv := range privileges {
				proof, err := store.QueryDirect(wallet.Query{
					Subject: core.SubjectEntity(member.ID()),
					Object:  priv,
				})
				if err != nil {
					return fmt.Errorf("member %s lacks %s: %w", member.Name(), priv, err)
				}
				if err := proof.Validate(core.ValidateOptions{At: w.now}); err != nil {
					return err
				}
				out.ProofsVerified++
			}
		}
	}
	return nil
}

// RunSeparability builds the coalition both ways (EXP-S4).
func RunSeparability(s Separability) (drbac, phantom SeparabilityOutcome, err error) {
	if drbac, err = SeparabilityDRBAC(s); err == nil {
		phantom, err = SeparabilityPhantomRole(s)
	}
	return drbac, phantom, err
}
