package discovery

import (
	"context"
	"encoding/json"
	"testing"

	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/remote"
	"drbac/internal/wallet"
)

// chainCoalition builds the §5 three-wallet chain once and returns a
// discover function that runs the full chain discovery through a fresh
// agent. Nonces and signatures are fixed at publish time, so proofs
// assembled by different agents over the same coalition are comparable
// byte-for-byte.
func chainCoalition(t *testing.T) func() *core.Proof {
	t.Helper()
	e := newEnv(t, "BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer")
	bigISPWallet := e.serve("wallet.bigisp", "BigISP")
	airNetWallet := e.serve("wallet.airnet", "AirNet")

	bigISPMemberTag := e.tag("wallet.bigisp", core.SubjectSearch, core.ObjectNone)
	airNetMemberTag := e.tag("wallet.airnet", core.SubjectSearch, core.ObjectNone)

	parsed, err := core.ParseDelegation("[Maria -> BigISP.member] BigISP", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.ObjectTag = &bigISPMemberTag
	d1, err := core.Issue(e.id("BigISP"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}

	d3 := e.deleg("[Sheila -> AirNet.mktg] AirNet")
	d4 := e.deleg("[AirNet.mktg -> AirNet.member'] AirNet")
	sup, err := core.NewProof(core.ProofStep{Delegation: d3}, core.ProofStep{Delegation: d4})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err = core.ParseDelegation(
		"[BigISP.member -> AirNet.member with AirNet.BW <= 100] Sheila", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.SubjectTag = &bigISPMemberTag
	parsed.Template.ObjectTag = &airNetMemberTag
	d2, err := core.Issue(e.id("Sheila"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := bigISPWallet.Publish(d2, sup); err != nil {
		t.Fatal(err)
	}
	parsed, err = core.ParseDelegation(
		"[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.SubjectTag = &airNetMemberTag
	d5, err := core.Issue(e.id("AirNet"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := airNetWallet.Publish(d5); err != nil {
		t.Fatal(err)
	}

	return func() *core.Proof {
		t.Helper()
		agent, serverWallet := e.agent("AirNetServer", Config{
			Dialer: e.net.Dialer(e.id("AirNetServer")),
		})
		if err := serverWallet.Publish(d1); err != nil {
			t.Fatal(err)
		}
		agent.Learn(d1)
		proof, err := agent.Discover(context.Background(), wallet.Query{
			Subject: e.subject("Maria"),
			Object:  e.role("AirNet.access"),
		}, Auto, nil)
		if err != nil {
			t.Fatalf("chain discovery failed: %v", err)
		}
		if err := proof.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
			t.Fatalf("discovered proof does not validate: %v", err)
		}
		return proof
	}
}

// marshalProof renders a proof for byte comparison.
func marshalProof(t *testing.T, p *core.Proof) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChainDiscoveryByteIdentical: the same three-wallet chain discovery
// (§5) run by two fresh agents over the same coalition must assemble
// byte-identical proofs.
func TestChainDiscoveryByteIdentical(t *testing.T) {
	discover := chainCoalition(t)
	want := marshalProof(t, discover())
	if got := marshalProof(t, discover()); got != want {
		t.Errorf("second agent's proof differs from the first's:\n%s\nvs\n%s", got, want)
	}
}

// TestWireProofMatchesLocal: a proof fetched over the wire re-marshals
// byte-identically to the one the serving wallet answers locally.
func TestWireProofMatchesLocal(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.serve("wallet.bigisp", "BigISP")
	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	local, err := w.QueryDirect(wallet.Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")})
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Dial(context.Background(), e.net.Dialer(e.id("Maria")), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fetched, err := c.QueryDirect(context.Background(),
		e.subject("Maria"), e.role("BigISP.member"), nil, graph.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalProof(t, fetched), marshalProof(t, local); got != want {
		t.Errorf("proof fetched over the wire differs from the local one:\nwire:  %s\nlocal: %s", got, want)
	}
}
