package discovery

import (
	"context"

	"drbac/internal/core"
	"drbac/internal/wallet"
)

// refDiscover is the round algorithm before the incremental frontier, kept
// as the reference the agent is checked against: every pass re-enumerates
// the local wallet from the query's end, and every round ends with a local
// direct query. It shares the agent's tag book, pool, holder and insertion,
// and records the same Stats and Trace.
func (a *Agent) refDiscover(ctx context.Context, q wallet.Query, mode Mode, stats *Stats) (*core.Proof, error) {
	q.Ctx = ctx
	if p, err := a.cfg.Local.QueryDirect(q); err == nil {
		return p, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dirs := []bool{false, true}
	switch mode {
	case ForwardOnly:
		dirs = dirs[:1]
	case ReverseOnly:
		dirs = dirs[1:]
	}
	queried := make(map[visit]bool)
	for round := 1; round <= maxRounds; round++ {
		stats.Rounds = round
		progress := 0
		for _, reverse := range dirs {
			n, found, err := a.refSearchRound(ctx, q, mode, reverse, round, queried, stats)
			progress += n
			if err != nil {
				return nil, err
			}
			if found != nil {
				return found, nil
			}
		}
		if p, err := a.cfg.Local.QueryDirect(q); err == nil {
			return p, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if progress == 0 {
			break
		}
	}
	return nil, core.ErrNoProof
}

// refSearchRound is one direction's pass of refDiscover: the frontier and
// its partial aggregates come from a fresh local enumeration.
func (a *Agent) refSearchRound(ctx context.Context, q wallet.Query, mode Mode, reverse bool, round int, queried map[visit]bool, stats *Stats) (int, *core.Proof, error) {
	kind := "subject"
	frontier := []core.Subject{q.Subject}
	var known []*core.Proof
	if reverse {
		kind = "object"
		frontier[0] = core.SubjectRole(q.Object)
		known = a.cfg.Local.QueryObject(q.Object, nil)
	} else {
		known = a.cfg.Local.QuerySubject(q.Subject, nil)
	}
	partials := make(map[core.Subject][]core.Aggregate)
	for _, p := range known {
		node := core.SubjectRole(p.Object)
		if reverse {
			if p.Subject.IsEntity() {
				continue
			}
			node = core.SubjectRole(p.Subject.Role)
		}
		frontier = append(frontier, node)
		if ag, err := p.Aggregate(); err == nil {
			partials[node] = append(partials[node], ag)
		}
	}
	progress := 0
	for _, node := range frontier {
		if err := ctx.Err(); err != nil {
			return progress, nil, err
		}
		v := visit{node, reverse}
		if queried[v] {
			continue
		}
		tag, ok := a.tagFor(ctx, node)
		if !ok {
			continue
		}
		searchable := tag.Subject == core.SubjectSearch || tag.Subject == core.SubjectStore
		if reverse {
			searchable = tag.Object == core.ObjectSearch || tag.Object == core.ObjectStore
		}
		if mode == Auto && !searchable {
			continue
		}
		c, home, err := a.client(ctx, tag, stats)
		if err != nil {
			continue
		}
		queried[v] = true
		remaining := q.Constraints
		if !a.cfg.DisableRangeAdjustment {
			remaining = looseAdjust(q.Constraints, partials[node])
		}
		stats.RemoteQueries++
		subject, object := node, q.Object
		if reverse {
			subject, object = q.Subject, node.Role
		}
		proofs, err := c.QueryExpand(traceCtx(ctx, nil, q.TraceID), subject, object, remaining, reverse)
		if err != nil {
			a.peers.ReportFailure(home, c)
			queried[v] = false
			continue
		}
		got := kind
		for _, p := range proofs {
			if p.Subject == subject && p.Object == object {
				got = "direct"
				break
			}
		}
		a.trace(nil, stats, round, home, got, node.String(), len(proofs))
		progress += len(a.insertProofs(ctx, proofs, tag.Home, tag.TTL, stats))
		if got == "direct" {
			if full, err := a.cfg.Local.QueryDirect(q); err == nil {
				return progress, full, nil
			}
		}
	}
	return progress, nil, nil
}
