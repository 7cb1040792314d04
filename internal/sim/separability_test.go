package sim

import "testing"

func TestScenarioValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    Separability
		wantErr bool
	}{
		{"valid", Separability{Partners: 2, Privileges: 3, MembersPerPartner: 1}, false},
		{"zero partners", Separability{Privileges: 3, MembersPerPartner: 1}, true},
		{"zero privileges", Separability{Partners: 2, MembersPerPartner: 1}, true},
		{"zero members", Separability{Partners: 2, Privileges: 3}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBothIdiomsAuthorizeAllMembers(t *testing.T) {
	s := Separability{Partners: 3, Privileges: 4, MembersPerPartner: 2}
	want := s.Partners * s.Privileges * s.MembersPerPartner

	d, ph, err := RunSeparability(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.ProofsVerified != want {
		t.Errorf("dRBAC proofs = %d, want %d", d.ProofsVerified, want)
	}
	if ph.ProofsVerified != want {
		t.Errorf("phantom proofs = %d, want %d", ph.ProofsVerified, want)
	}
}

// §3.1.3: third-party delegation avoids namespace pollution — the dRBAC
// role count is independent of the number of partners, while the baseline
// mints one phantom role per partner × privilege.
func TestNamespacePollutionScaling(t *testing.T) {
	s := Separability{Partners: 4, Privileges: 5, MembersPerPartner: 1}

	d, err := SeparabilityDRBAC(s)
	if err != nil {
		t.Fatal(err)
	}
	// dRBAC: K privileges + one admin role per partner, no phantoms.
	if d.PhantomRoles != 0 {
		t.Errorf("dRBAC phantom roles = %d, want 0", d.PhantomRoles)
	}
	if want := s.Privileges + s.Partners; d.RolesCreated != want {
		t.Errorf("dRBAC roles = %d, want %d", d.RolesCreated, want)
	}
	if !d.Separable {
		t.Error("dRBAC idiom should be separable")
	}

	ph, err := SeparabilityPhantomRole(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Partners * s.Privileges; ph.PhantomRoles != want {
		t.Errorf("phantom roles = %d, want %d", ph.PhantomRoles, want)
	}
	if want := s.Privileges + s.Partners*s.Privileges; ph.RolesCreated != want {
		t.Errorf("baseline roles = %d, want %d", ph.RolesCreated, want)
	}
	if ph.Separable {
		t.Error("phantom idiom must not be separable")
	}
	if ph.RolesCreated <= d.RolesCreated {
		t.Errorf("baseline should pollute more: %d vs %d", ph.RolesCreated, d.RolesCreated)
	}
}

// The pollution gap widens linearly with partners for the baseline but
// stays flat for dRBAC (beyond the one admin role per partner).
func TestPollutionGrowthWithPartners(t *testing.T) {
	for _, partners := range []int{1, 3, 6} {
		s := Separability{Partners: partners, Privileges: 4, MembersPerPartner: 1}
		d, err := SeparabilityDRBAC(s)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := SeparabilityPhantomRole(s)
		if err != nil {
			t.Fatal(err)
		}
		if gap := ph.PhantomRoles - d.PhantomRoles; gap != partners*s.Privileges {
			t.Errorf("partners=%d: phantom gap = %d, want %d", partners, gap, partners*s.Privileges)
		}
	}
}
