package remote

import (
	"context"
	"io"
	"log/slog"
	"testing"

	"drbac/internal/bufpool"
	"drbac/internal/graph"
	"drbac/internal/obs"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// A query served with no Obs renders neither of the ends it names: with no
// audit record to write and no span to open, query-direct, query-expand,
// query-subject and query-object each allocate fewer objects than the same
// request served with an Info logger, which the record reads.
func TestQueryWithoutObsRendersNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir})
	if err := w.Publish(e.deleg("[Mark -> BigISP.memberServices] BigISP")); err != nil {
		t.Fatal(err)
	}
	// Entity subjects render as a substring of their ID; a role allocates.
	mark, services := e.subject("Mark"), e.role("BigISP.memberServices")
	role := e.subject("BigISP.memberServices")
	for _, tc := range []struct {
		t   wire.MsgType
		req wire.QueryReq
	}{
		{wire.TQueryDirect, wire.QueryReq{Subject: mark, Object: services}},
		{wire.TQueryExpand, wire.QueryReq{Subject: mark, Object: services, Direction: graph.Forward}},
		{wire.TQuerySubject, wire.QueryReq{Subject: role}},
		{wire.TQueryObject, wire.QueryReq{Object: services}},
	} {
		pooled, err := codec.Encode(tc.t, 1, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), pooled...)
		bufpool.Put(pooled)
		env, err := codec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		msg, h := wire.Lookup(tc.t), handlers[tc.t]
		serve := func(o *obs.Obs) float64 {
			s := &Server{w: w, obs: o, baseCtx: context.Background()}
			// dispatch's record, made once here so only rendering counts.
			var rec []slog.Attr
			if o != nil {
				rec = make([]slog.Attr, 0, auditCap)
			}
			return testing.AllocsPerRun(200, func() {
				if _, _, err := h(s, nil, msg, env, rec[:0]); err != nil {
					t.Fatal(err)
				}
			})
		}
		bare := serve(nil)
		audited := serve(obs.New(obs.NewLogger(io.Discard, slog.LevelInfo, false), nil))
		t.Logf("%s: %v allocations with no Obs, %v with an audit record", tc.t, bare, audited)
		if bare >= audited {
			t.Errorf("%s: served with no Obs allocates %v times, not fewer than the %v of an audited request", tc.t, bare, audited)
		}
	}
}
