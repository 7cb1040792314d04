package discovery

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"drbac/internal/peer"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

// olderHome is a listener whose connections read frames as a build from
// before query-expand does: the row's type code is unknown to it, a protocol
// violation that drops the connection. Every other frame reaches the real
// server behind it. expands counts the query-expand frames it has seen.
type olderHome struct {
	transport.Listener
	expands atomic.Int32
}

func (h *olderHome) Accept() (transport.Conn, error) {
	c, err := h.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &olderConn{Conn: c, home: h}, nil
}

type olderConn struct {
	transport.Conn
	home *olderHome
}

func (c *olderConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if env, err := wire.CodecFor(wire.CodecBinary).Decode(frame); err == nil && env.Type == wire.TQueryExpand {
		c.home.expands.Add(1)
		_ = c.Conn.Close()
		return nil, errors.New("wire decode: unknown message type code 22")
	}
	return frame, nil
}

// olderDialer dials as a home built before query-expand answers: that home's
// hello states no revision, so its connection reports revision 0.
type olderDialer struct{ transport.Dialer }

func (d olderDialer) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := d.Dialer.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return revZeroConn{c}, nil
}

type revZeroConn struct{ transport.Conn }

func (revZeroConn) PeerRev() int { return 0 }

// TestOldHomeFigure2Fallback runs Figure 2 against homes built before
// query-expand, whose hellos state no revision. The client asks each of them
// query-direct plus query-subject or query-object and never query-expand: the
// discovery finds the same proof with the same trace and effort as against
// current homes, a second discovery over the same pooled connections does
// too, and no home sees a query-expand frame or costs the pool a failure.
func TestOldHomeFigure2Fallback(t *testing.T) {
	discover := func(a *Agent, q wallet.Query) (string, Stats) {
		t.Helper()
		var stats Stats
		p, err := a.Discover(context.Background(), q, Auto, &stats)
		if err != nil {
			t.Fatalf("discover: %v (trace %s)", err, fmtTrace(stats.Trace))
		}
		if p.Len() != 3 {
			t.Fatalf("proof length = %d, want 3", p.Len())
		}
		tr := fmtTrace(stats.Trace)
		stats.Trace = nil
		return tr, stats
	}
	names := []string{"BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer"}

	ref := setupCaseStudy(t, newEnv(t, names...))
	wantTrace, wantStats := discover(ref.agent, ref.query)

	e := newEnv(t, names...)
	e.older = make(map[string]*olderHome)
	cs := setupCaseStudy(t, e)
	for round := 1; round <= 2; round++ {
		a := cs.agent
		if round == 2 {
			// A fresh local wallet, so nothing is held locally, over the
			// first agent's pooled connections.
			var local *wallet.Wallet
			a, local = e.agent("AirNetServer", Config{Peers: cs.agent.Peers()})
			if err := local.Publish(cs.d1); err != nil {
				t.Fatal(err)
			}
			a.Learn(cs.d1)
		}
		tr, stats := discover(a, cs.query)
		if tr != wantTrace || fmt.Sprint(stats) != fmt.Sprint(wantStats) {
			t.Errorf("discovery %d against older homes: trace %q, effort %+v\n want (current homes) %q, %+v",
				round, tr, stats, wantTrace, wantStats)
		}
		for addr, h := range e.older {
			if n := h.expands.Load(); n != 0 {
				t.Errorf("after discovery %d, %s saw %d query-expand frames, want none", round, addr, n)
			}
			if health := cs.agent.Peers().HealthOf(addr); health.State != peer.StateClosed ||
				health.ConsecutiveFailures != 0 || !health.Connected {
				t.Errorf("after discovery %d, the pool holds %s as %+v, want a closed breaker, no failures, connected",
					round, addr, health)
			}
		}
	}
}
