package sim

import (
	"fmt"
	"time"

	"drbac/internal/core"
	"drbac/internal/discovery"
	"drbac/internal/wallet"
)

// CaseStudy is the §5 / Table 3 coalition, fully wired: BigISP's and
// AirNet's home wallets served on the world network, the six delegations
// in their home wallets, and an AirNet server wallet with a discovery
// agent holding delegation (1).
type CaseStudy struct {
	BigISPWallet *wallet.Wallet
	AirNetWallet *wallet.Wallet
	ServerWallet *wallet.Wallet
	Agent        *discovery.Agent

	// D1, D2, D5 are the chain delegations; D3 and D4 are Sheila's support.
	D1, D2, D3, D4, D5 *core.Delegation

	// Query asks: does Maria hold AirNet.access?
	Query wallet.Query

	// BW, Storage, Hours are AirNet's valued attributes, evaluated in §5
	// against bases +Inf, 50, and 60 to 100, 30, and 18.
	BW, Storage, Hours core.AttributeRef
}

// NewCaseStudy builds the §5 initial state (Figure 2(a)) on a world.
func NewCaseStudy(w *World) (*CaseStudy, error) {
	cs := new(CaseStudy)
	w.Ensure("BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer")

	var err error
	if cs.BigISPWallet, err = w.Serve("wallet.bigisp", "BigISP"); err != nil {
		return nil, err
	}
	if cs.AirNetWallet, err = w.Serve("wallet.airnet", "AirNet"); err != nil {
		return nil, err
	}

	airNetID := w.Identity("AirNet").ID()
	cs.BW = core.AttributeRef{Namespace: airNetID, Name: "BW"}
	cs.Storage = core.AttributeRef{Namespace: airNetID, Name: "storage"}
	cs.Hours = core.AttributeRef{Namespace: airNetID, Name: "hours"}

	// memberTag sends subject searches to owner's home wallet, which proves
	// the role owner.wallet.
	memberTag := func(owner, home string) core.DiscoveryTag {
		return core.DiscoveryTag{Home: home, AuthRole: core.NewRole(w.Identity(owner).ID(), "wallet"),
			TTL: 30 * time.Second, Subject: core.SubjectSearch, Object: core.ObjectNone}
	}
	bigISPMemberTag, airNetMemberTag := memberTag("BigISP", "wallet.bigisp"), memberTag("AirNet", "wallet.airnet")

	// Home wallets prove their authorization roles (§4.2.1) so verifying
	// agents can check them.
	if err := w.publish(cs.BigISPWallet, "[BigISP -> BigISP.wallet] BigISP"); err != nil {
		return nil, err
	}
	if err := w.publish(cs.AirNetWallet, "[AirNet -> AirNet.wallet] AirNet"); err != nil {
		return nil, err
	}

	// Delegation (1): [Maria -> BigISP.member] BigISP.
	if cs.D1, err = w.IssueTagged("[Maria -> BigISP.member] BigISP", nil, &bigISPMemberTag); err != nil {
		return nil, err
	}

	// Delegations (3), (4): Sheila's authority, support for (2).
	if cs.D3, err = w.Issue("[Sheila -> AirNet.mktg] AirNet"); err != nil {
		return nil, err
	}
	if cs.D4, err = w.Issue("[AirNet.mktg -> AirNet.member'] AirNet"); err != nil {
		return nil, err
	}
	sup, err := core.NewProof(core.ProofStep{Delegation: cs.D3}, core.ProofStep{Delegation: cs.D4})
	if err != nil {
		return nil, err
	}

	// Delegation (2): the coalition, modulated (Table 2 example 4 plus the
	// hours multiplier the §5 outcomes require).
	if cs.D2, err = w.IssueTagged(
		"[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20 and AirNet.hours *= 0.3] Sheila",
		&bigISPMemberTag, &airNetMemberTag); err != nil {
		return nil, err
	}
	if err := cs.BigISPWallet.Publish(cs.D2, sup); err != nil {
		return nil, fmt.Errorf("publish (2): %w", err)
	}

	// Delegation (5): [AirNet.member -> AirNet.access with AirNet.BW <= 200].
	if cs.D5, err = w.IssueTagged(
		"[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet",
		&airNetMemberTag, nil); err != nil {
		return nil, err
	}
	if err := cs.AirNetWallet.Publish(cs.D5); err != nil {
		return nil, fmt.Errorf("publish (5): %w", err)
	}

	// The AirNet server's trusted local wallet and discovery agent
	// (Figure 2: initially empty except for delegation (1), which Maria's
	// software presents in step 1).
	cs.ServerWallet = w.Wallet("AirNetServer")
	cs.Agent = w.agent(discovery.Config{
		Local:  cs.ServerWallet,
		Dialer: w.Net.Dialer(w.Identity("AirNetServer")),
	})
	if err := cs.ServerWallet.Publish(cs.D1); err != nil {
		return nil, fmt.Errorf("publish (1): %w", err)
	}
	cs.Agent.Learn(cs.D1)

	if cs.Query, err = w.query("Maria", "AirNet.access"); err != nil {
		return nil, err
	}
	return cs, nil
}
