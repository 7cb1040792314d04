package discovery

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"drbac/internal/core"
)

// TestFigure2RoundTracePinned pins the remote interactions of a forward-only
// and a reverse-only discovery over the Figure 2 chain — which wallet, which
// query kind, which node, how many results, in which round, plus the effort
// counters. Both directions run through the one direction-parameterized
// searchRound; these sequences are what each must keep producing.
func TestFigure2RoundTracePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
		// mirror also registers the coalition delegation (2) at AirNet's
		// home, which makes the chain reachable from its object end.
		mirror bool
		trace  string
		stats  Stats
	}{
		{"forward", ForwardOnly, false,
			"r1 wallet.bigisp subject(BigISP.member)=1; r2 wallet.airnet direct(AirNet.member)=1; ",
			Stats{Rounds: 2, RemoteQueries: 3, WalletsContacted: 2, DelegationsFetched: 2}},
		{"reverse", ReverseOnly, true,
			"r1 wallet.airnet object(AirNet.access)=2; ",
			Stats{Rounds: 1, RemoteQueries: 2, WalletsContacted: 1, DelegationsFetched: 2}},
		// Without the mirror the reverse search runs dry at AirNet.member
		// (delegation (2) lives at BigISP's home only): two rounds, no proof.
		{"reverse-dry", ReverseOnly, false,
			"r1 wallet.airnet object(AirNet.access)=1; r2 wallet.airnet object(AirNet.member)=0; ",
			Stats{Rounds: 2, RemoteQueries: 4, WalletsContacted: 1, DelegationsFetched: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer")
			cs := setupCaseStudy(t, e)
			cs.agent.RegisterTag(e.subject("AirNet.access"), e.tag("wallet.airnet", core.SubjectNone, core.ObjectSearch))
			if tc.mirror {
				d2, support, ok := cs.bigISPWallet.Get(cs.d2.ID())
				if !ok {
					t.Fatal("delegation (2) missing from BigISP's home")
				}
				if err := cs.airNetWallet.Publish(d2, support...); err != nil {
					t.Fatal(err)
				}
			}

			var stats Stats
			p, err := cs.agent.Discover(context.Background(), cs.query, tc.mode, &stats)
			switch {
			case tc.name == "reverse-dry":
				if !errors.Is(err, core.ErrNoProof) {
					t.Fatalf("discover: %v, want no proof", err)
				}
			case err != nil:
				t.Fatalf("discover: %v (trace %s)", err, fmtTrace(stats.Trace))
			case p.Len() != 3:
				t.Fatalf("proof length = %d, want 3", p.Len())
			}
			got := ""
			for _, ev := range stats.Trace {
				node := ev.Node
				for _, name := range []string{"BigISP.member", "AirNet.member", "AirNet.access"} {
					if node == e.subject(name).String() {
						node = name
					}
				}
				got += fmt.Sprintf("r%d %s %s(%s)=%d; ", ev.Round, ev.Wallet, ev.Kind, node, ev.Results)
			}
			if got != tc.trace {
				t.Errorf("trace = %q\n        want %q", got, tc.trace)
			}
			stats.Trace = nil
			if fmt.Sprint(stats) != fmt.Sprint(tc.stats) {
				t.Errorf("effort = %+v, want %+v", stats, tc.stats)
			}
		})
	}
}
