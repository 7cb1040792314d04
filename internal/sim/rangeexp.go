package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"drbac/internal/core"
	"drbac/internal/discovery"
)

// RangePoint is one row of EXP-S2b: the network cost of a doomed
// distributed search with and without the §4.2.3 modulated-attribute-range
// adjustment. The topology puts `fanout` continuation edges (each
// individually generous, none reaching the goal) behind a local prefix
// that has already consumed the attribute budget: an adjusted search lets
// the remote wallet prune them all; an unadjusted one fetches every edge
// before giving up.
type RangePoint struct {
	Fanout int
	// AdjustedFetched / UnadjustedFetched: delegations pulled into the
	// local wallet before concluding no proof exists.
	AdjustedFetched   int
	UnadjustedFetched int
	AdjustedBytes     int64
	UnadjustedBytes   int64
}

// RunRangeAdjustment measures EXP-S2b for one fanout.
func RunRangeAdjustment(fanout int) (RangePoint, error) {
	if fanout < 1 {
		return RangePoint{}, fmt.Errorf("sim: fanout must be positive")
	}
	pt := RangePoint{Fanout: fanout}
	var err error
	if pt.AdjustedFetched, pt.AdjustedBytes, err = runRangeConfig(fanout, false); err != nil {
		return RangePoint{}, err
	}
	if pt.UnadjustedFetched, pt.UnadjustedBytes, err = runRangeConfig(fanout, true); err != nil {
		return RangePoint{}, err
	}
	return pt, nil
}

func runRangeConfig(fanout int, disable bool) (fetched int, bytes int64, err error) {
	w := NewWorld()
	defer w.Close()
	w.Ensure("A", "B", "M", "Server")

	home, err := w.Serve("wallet.b", "B")
	if err != nil {
		return 0, 0, err
	}
	// Continuations at B's wallet: every edge A.x -> B.mid_i is generous on
	// its own (BW <= 80 would clear the minimum of 50), but none of them
	// reaches the goal — fetching any of them is pure waste.
	for i := 0; i < fanout; i++ {
		if err := w.publish(home, fmt.Sprintf("[A.x -> B.mid%d with B.BW <= 80] B", i)); err != nil {
			return 0, 0, err
		}
	}

	local := w.Wallet("Server")
	// The local prefix already caps B.BW at 40 — below the minimum — so no
	// continuation can help.
	if err := w.publish(local, "[M -> A.x with B.BW <= 40] A"); err != nil {
		return 0, 0, err
	}
	agent := w.agent(discovery.Config{
		Local:                  local,
		Dialer:                 w.Net.Dialer(w.Identity("Server")),
		DisableRangeAdjustment: disable,
	})
	subjectAx, err := w.Subject("A.x")
	if err != nil {
		return 0, 0, err
	}
	agent.RegisterTag(subjectAx, core.DiscoveryTag{
		Home: "wallet.b", TTL: 30 * time.Second, Subject: core.SubjectSearch,
	})

	q, err := w.query("M", "B.goal")
	if err != nil {
		return 0, 0, err
	}
	bw := core.AttributeRef{Namespace: w.Identity("B").ID(), Name: "BW"}
	q.Constraints = []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 50}}
	w.Net.ResetStats()
	var stats discovery.Stats
	_, derr := agent.Discover(context.Background(), q, discovery.Auto, &stats)
	if derr == nil || !errors.Is(derr, core.ErrNoProof) {
		return 0, 0, fmt.Errorf("doomed search should find no proof, got %v", derr)
	}
	return stats.DelegationsFetched, w.Net.Stats().Bytes, nil
}

func rangesReport(r *Report) error {
	r.printf("%7s %16s %18s %15s %17s",
		"fanout", "adjusted-fetch", "unadjusted-fetch", "adjusted-bytes", "unadjusted-bytes")
	for _, fanout := range []int{2, 4, 8, 16} {
		pt, err := RunRangeAdjustment(fanout)
		if err != nil {
			return err
		}
		r.printf("%7d %16d %18d %15d %17d", pt.Fanout, pt.AdjustedFetched, pt.UnadjustedFetched,
			byteTotal(pt.AdjustedBytes), byteTotal(pt.UnadjustedBytes))
	}
	r.printf("a doomed search (local prefix already below the constraint) fetches nothing")
	r.printf("when remote queries carry range-adjusted constraints.")
	return nil
}
