package main

import (
	"errors"
	"testing"

	"drbac"
)

func TestWorldDigestIsSeedDetermined(t *testing.T) {
	a, b, c := buildAuthzWorld(3, 500), buildAuthzWorld(3, 500), buildAuthzWorld(4, 500)
	if digest(a.bundles) != digest(b.bundles) {
		t.Error("same seed, different authz worlds")
	}
	if digest(a.bundles) == digest(c.bundles) {
		t.Error("different seeds, same authz world")
	}
	pa, pb := a.pairs(256, true), b.pairs(256, true)
	if len(pa) != len(pb) {
		t.Fatalf("same seed, %d vs %d pairs", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].subject != pb[i].subject || pa[i].object != pb[i].object || pa[i].provable != pb[i].provable {
			t.Fatalf("same seed, pair %d differs", i)
		}
	}
	da, _ := a.fresh(0)
	db, _ := b.fresh(0)
	if da.ID() != db.ID() {
		t.Error("same seed, different churn publications")
	}

	// The three listeners' ports differ from run to run; the digest must not.
	addrs, other := [3]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, [3]string{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"}
	x, y, z := buildDiscoverWorld(3, 8, addrs), buildDiscoverWorld(3, 8, other), buildDiscoverWorld(4, 8, addrs)
	if x.carried[0].ID() == y.carried[0].ID() {
		t.Fatal("the addresses are in the tags, so the IDs should differ")
	}
	dx, dy, dz := digest(x.perHome[:]...), digest(y.perHome[:]...), digest(z.perHome[:]...)
	if dx != dy || dx == dz {
		t.Errorf("discover digests: same seed %s/%s, other seed %s", dx, dy, dz)
	}
}

// The generator labels every pair with its own reachability oracle; a wallet
// holding the world must agree on each one, and every publication must be
// admitted (support proofs included).
func TestWorldOracleAgreesWithWallet(t *testing.T) {
	w := buildAuthzWorld(11, 1200)
	wallet := drbac.NewWallet(drbac.WalletConfig{SigCache: drbac.NewSigCache(0)})
	if err := publishAll(wallet, w.bundles); err != nil {
		t.Fatal(err)
	}
	var thirdParty, attrs int
	for _, b := range w.bundles {
		if b.d.Kind() == drbac.KindThirdParty {
			thirdParty++
		}
		if len(b.d.Attributes) > 0 {
			attrs++
		}
	}
	n := float64(len(w.bundles))
	if s := float64(thirdParty) / n; s < 0.18 || s > 0.32 {
		t.Errorf("third-party share %.2f, want about a quarter", s)
	}
	if s := float64(attrs) / n; s < 0.18 || s > 0.32 {
		t.Errorf("attribute-carrying share %.2f, want about a quarter", s)
	}

	pairs := w.pairs(2000, false)
	var provable, constrained, deepest int
	for _, p := range pairs {
		proof, err := wallet.QueryDirect(drbac.Query{Subject: p.subject, Object: p.object, Constraints: p.constraints})
		switch {
		case p.provable && err != nil:
			t.Fatalf("oracle says provable, wallet says %v", err)
		case !p.provable && !errors.Is(err, drbac.ErrNoProof):
			t.Fatalf("oracle says unprovable, wallet says %v", err)
		}
		if p.provable {
			provable++
			if len(proof.Steps) > deepest {
				deepest = len(proof.Steps)
			}
		}
		if len(p.constraints) > 0 {
			constrained++
		}
	}
	if s := float64(provable) / float64(len(pairs)); s < 0.85 || s > 0.95 {
		t.Errorf("provable share %.2f, want 0.9", s)
	}
	if s := float64(constrained) / float64(len(pairs)); s < 0.2 || s > 0.3 {
		t.Errorf("constrained share %.2f, want a quarter", s)
	}
	if deepest < 8 || deepest > maxProofDepth {
		t.Errorf("deepest proof has %d steps, want cross-org chains within %d", deepest, maxProofDepth)
	}

	// The churn fixtures: a fresh grant makes its dependent question
	// provable, through the issuer's service → tier edge.
	d, dep := w.fresh(5)
	if err := wallet.Publish(d); err != nil {
		t.Fatal(err)
	}
	proof, err := wallet.QueryDirect(drbac.Query{Subject: dep.subject, Object: dep.object})
	if err != nil || len(proof.Steps) != 2 {
		t.Fatalf("dependent question: proof %v, err %v", proof, err)
	}
}
