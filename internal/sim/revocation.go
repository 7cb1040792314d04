package sim

// The credential-status comparators of §6: an OCSP-style polling responder,
// a CRL-style broadcast distributor, and dRBAC's delegation subscriptions —
// all as real message-passing protocols over a World's counted in-memory
// network, so the experiment (EXP-S3) compares measured messages and bytes
// rather than formulas.
//
// The simulation is driven in discrete time steps by the harness (no wall-
// clock sleeps): each step the harness may poll, publish a CRL, or revoke a
// credential; the schemes respond with real frames.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"drbac/internal/core"
	"drbac/internal/subs"
	"drbac/internal/transport"
)

// RevocationScheme names a credential-status mechanism.
type RevocationScheme string

const (
	// OCSP: every client polls the responder for every monitored
	// credential at a fixed interval (RFC 2560 model).
	OCSP RevocationScheme = "ocsp"
	// CRL: the distributor periodically pushes the full revocation list to
	// every subscriber (RFC 2459 model).
	CRL RevocationScheme = "crl"
	// Subscription: dRBAC delegation subscriptions push one notification
	// per status change to interested parties only (§4.2.2).
	Subscription RevocationScheme = "subscription"
)

// RevocationParams shapes one simulated session.
type RevocationParams struct {
	// Clients monitoring credentials.
	Clients int
	// Credentials monitored by every client (a shared coalition set).
	Credentials int
	// Steps is the session length in discrete time units.
	Steps int
	// PollEvery is the OCSP polling period in steps.
	PollEvery int
	// CRLEvery is the CRL publication period in steps.
	CRLEvery int
	// RevokeAt lists the steps at which the next unrevoked credential is
	// revoked. Steps outside [0, Steps) are ignored.
	RevokeAt []int
}

// Validate checks parameter sanity.
func (p RevocationParams) Validate() error {
	if p.Clients <= 0 || p.Credentials <= 0 || p.Steps <= 0 {
		return fmt.Errorf("revocation: Clients, Credentials, Steps must be positive")
	}
	if p.PollEvery <= 0 || p.CRLEvery <= 0 {
		return fmt.Errorf("revocation: PollEvery and CRLEvery must be positive")
	}
	if len(p.RevokeAt) > p.Credentials {
		return fmt.Errorf("revocation: more revocations than credentials")
	}
	return nil
}

// RevocationResult reports the measured cost of one scheme over one session.
type RevocationResult struct {
	Scheme RevocationScheme
	// Messages and Bytes are total network frames and payload bytes,
	// including connection handshakes and subscription setup.
	Messages int64
	Bytes    int64
	// Notifications counts status changes that reached clients.
	Notifications int
	// StalenessSteps sums, over all revocations and clients, the number of
	// steps between a revocation and the client learning of it.
	StalenessSteps int
}

// RunRevocationScheme executes one scheme under p and returns its measured cost.
func RunRevocationScheme(scheme RevocationScheme, p RevocationParams) (RevocationResult, error) {
	if err := p.Validate(); err != nil {
		return RevocationResult{}, err
	}
	switch scheme {
	case OCSP:
		return runOCSP(p)
	case CRL:
		return runCRL(p)
	case Subscription:
		return runSubscription(p)
	default:
		return RevocationResult{}, fmt.Errorf("revocation: unknown scheme %q", scheme)
	}
}

// RunRevocation executes all three schemes under identical parameters
// (EXP-S3).
func RunRevocation(p RevocationParams) ([]RevocationResult, error) {
	var out []RevocationResult
	for _, s := range []RevocationScheme{OCSP, CRL, Subscription} {
		r, err := RunRevocationScheme(s, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// credIDs builds deterministic credential identifiers shared by all
// schemes.
func credIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cred-%04d", i)
	}
	return out
}

// revocationSchedule maps step -> credential index revoked at that step.
func revocationSchedule(p RevocationParams) map[int]int {
	sched := make(map[int]int, len(p.RevokeAt))
	next := 0
	for _, at := range p.RevokeAt {
		if at < 0 || at >= p.Steps {
			continue
		}
		if _, dup := sched[at]; dup {
			continue
		}
		sched[at] = next
		next++
	}
	return sched
}

// --- OCSP -----------------------------------------------------------------

type ocspReq struct {
	IDs []string `json:"ids"`
}

type ocspResp struct {
	Revoked []bool `json:"revoked"`
}

// runOCSP: a responder holds status; each client polls all credentials
// every PollEvery steps (one batched request per poll, the favourable case
// for OCSP).
func runOCSP(p RevocationParams) (RevocationResult, error) {
	w := NewWorld()
	defer w.Close()
	net, server, client := w.Net, w.Identity("status-server"), w.Identity("status-client")

	creds := credIDs(p.Credentials)
	var mu sync.Mutex
	revoked := make(map[string]bool)

	// The responder's goroutines end once the listener and the clients'
	// connections, closed first, are gone.
	var wg sync.WaitGroup
	w.own(wg.Wait)
	ln, err := net.Listen("ocsp.responder", server)
	if err != nil {
		return RevocationResult{}, err
	}
	w.own(func() { ln.Close() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					frame, err := conn.Recv()
					if err != nil {
						return
					}
					var req ocspReq
					if err := json.Unmarshal(frame, &req); err != nil {
						return
					}
					resp := ocspResp{Revoked: make([]bool, len(req.IDs))}
					mu.Lock()
					for i, id := range req.IDs {
						resp.Revoked[i] = revoked[id]
					}
					mu.Unlock()
					out, err := json.Marshal(resp)
					if err != nil {
						return
					}
					if err := conn.Send(out); err != nil {
						return
					}
				}
			}()
		}
	}()

	conns := make([]transport.Conn, p.Clients)
	for i := range conns {
		c, err := net.Dialer(client).Dial(context.Background(), "ocsp.responder")
		if err != nil {
			return RevocationResult{}, err
		}
		w.own(func() { c.Close() })
		conns[i] = c
	}

	res := RevocationResult{Scheme: OCSP}
	sched := revocationSchedule(p)
	known := make([]map[string]bool, p.Clients)
	for i := range known {
		known[i] = make(map[string]bool)
	}
	pendingSince := make(map[string]int)

	req, err := json.Marshal(ocspReq{IDs: creds})
	if err != nil {
		return RevocationResult{}, err
	}
	for step := 0; step < p.Steps; step++ {
		if idx, ok := sched[step]; ok {
			mu.Lock()
			revoked[creds[idx]] = true
			mu.Unlock()
			pendingSince[creds[idx]] = step
		}
		if step%p.PollEvery != 0 {
			continue
		}
		for ci, conn := range conns {
			if err := conn.Send(req); err != nil {
				return RevocationResult{}, err
			}
			frame, err := conn.Recv()
			if err != nil {
				return RevocationResult{}, err
			}
			var resp ocspResp
			if err := json.Unmarshal(frame, &resp); err != nil {
				return RevocationResult{}, err
			}
			for i, r := range resp.Revoked {
				if r && !known[ci][creds[i]] {
					known[ci][creds[i]] = true
					res.Notifications++
					res.StalenessSteps += step - pendingSince[creds[i]]
				}
			}
		}
	}
	st := net.Stats()
	res.Messages, res.Bytes = st.Messages, st.Bytes
	return res, nil
}

// --- CRL ------------------------------------------------------------------

type crlPush struct {
	Revoked []string `json:"revoked"`
}

// runCRL: the distributor pushes the complete revocation list to every
// subscriber every CRLEvery steps, whether or not anything changed.
func runCRL(p RevocationParams) (RevocationResult, error) {
	w := NewWorld()
	defer w.Close()
	net, server, client := w.Net, w.Identity("status-server"), w.Identity("status-client")

	creds := credIDs(p.Credentials)
	var wg sync.WaitGroup
	w.own(wg.Wait)
	ln, err := net.Listen("crl.distributor", server)
	if err != nil {
		return RevocationResult{}, err
	}
	w.own(func() { ln.Close() })

	// The distributor accepts subscriber connections until its listener
	// closes.
	var mu sync.Mutex
	var subscriberConns []transport.Conn
	accepted := make(chan struct{}, p.Clients)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			subscriberConns = append(subscriberConns, conn)
			mu.Unlock()
			accepted <- struct{}{}
		}
	}()

	clientConns := make([]transport.Conn, p.Clients)
	for i := range clientConns {
		c, err := net.Dialer(client).Dial(context.Background(), "crl.distributor")
		if err != nil {
			return RevocationResult{}, err
		}
		w.own(func() { c.Close() })
		clientConns[i] = c
		<-accepted
	}

	res := RevocationResult{Scheme: CRL}
	sched := revocationSchedule(p)
	var revokedList []string
	known := make([]int, p.Clients) // length of list each client has seen
	pendingSince := make(map[string]int)

	for step := 0; step < p.Steps; step++ {
		if idx, ok := sched[step]; ok {
			revokedList = append(revokedList, creds[idx])
			pendingSince[creds[idx]] = step
		}
		if step%p.CRLEvery != 0 {
			continue
		}
		frame, err := json.Marshal(crlPush{Revoked: revokedList})
		if err != nil {
			return RevocationResult{}, err
		}
		mu.Lock()
		targets := append([]transport.Conn(nil), subscriberConns...)
		mu.Unlock()
		for _, conn := range targets {
			if err := conn.Send(frame); err != nil {
				return RevocationResult{}, err
			}
		}
		// Clients drain the push and diff against what they knew.
		for ci, conn := range clientConns {
			frame, err := conn.Recv()
			if err != nil {
				return RevocationResult{}, err
			}
			var push crlPush
			if err := json.Unmarshal(frame, &push); err != nil {
				return RevocationResult{}, err
			}
			for _, id := range push.Revoked[known[ci]:] {
				res.Notifications++
				res.StalenessSteps += step - pendingSince[id]
			}
			known[ci] = len(push.Revoked)
		}
	}
	st := net.Stats()
	res.Messages, res.Bytes = st.Messages, st.Bytes
	return res, nil
}

// --- dRBAC subscriptions ----------------------------------------------------

// runSubscription: a real wallet served over the network; every client
// holds one connection with one delegation subscription per credential;
// revocations push exactly one notification per interested client.
func runSubscription(p RevocationParams) (RevocationResult, error) {
	w := NewWorld()
	defer w.Close()
	net, server, client := w.Net, w.Identity("status-server"), w.Identity("status-client")
	wal, err := w.Serve("wallet.home", "status-server")
	if err != nil {
		return RevocationResult{}, err
	}

	// Real delegations to monitor.
	dels := make([]*core.Delegation, p.Credentials)
	for i := range dels {
		d, err := core.Issue(server, entityGrant(client, core.NewRole(server.ID(), fmt.Sprintf("role%04d", i))), w.Clock.Now())
		if err != nil {
			return RevocationResult{}, err
		}
		if err := wal.Publish(d); err != nil {
			return RevocationResult{}, err
		}
		dels[i] = d
	}

	res := RevocationResult{Scheme: Subscription}
	// Room for every push the session can make, so no handler blocks.
	arrival := make(chan struct{}, p.Clients*p.Credentials)
	for i := 0; i < p.Clients; i++ {
		c, err := w.dial(net.Dialer(client), "wallet.home")
		if err != nil {
			return RevocationResult{}, err
		}
		for _, d := range dels {
			if _, err := c.Subscribe(context.Background(), d.ID(), func(ev subs.Event) {
				if ev.Kind == subs.Revoked {
					arrival <- struct{}{}
				}
			}); err != nil {
				return RevocationResult{}, err
			}
		}
	}

	sched := revocationSchedule(p)
	for step := 0; step < p.Steps; step++ {
		idx, ok := sched[step]
		if !ok {
			continue
		}
		if err := wal.Revoke(dels[idx].ID(), server.ID()); err != nil {
			return RevocationResult{}, err
		}
		// Push model: every client's notification arrives within the same
		// step; wait for them so staleness is honestly zero steps.
		deadline := time.After(5 * time.Second)
		for i := 0; i < p.Clients; i++ {
			select {
			case <-arrival:
				res.Notifications++
			case <-deadline:
				return RevocationResult{}, fmt.Errorf("subscription push timed out")
			}
		}
	}
	res.Notifications += len(arrival) // pushes beyond one per client and revocation
	st := net.Stats()
	res.Messages, res.Bytes = st.Messages, st.Bytes
	return res, nil
}

func revocationReport(r *Report) error {
	for _, cfg := range []struct {
		label string
		p     RevocationParams
	}{
		{"short session, 1 revocation", RevocationParams{
			Clients: 8, Credentials: 16, Steps: 200, PollEvery: 5, CRLEvery: 10, RevokeAt: []int{53}}},
		{"long session, 1 revocation", RevocationParams{
			Clients: 8, Credentials: 16, Steps: 2000, PollEvery: 5, CRLEvery: 10, RevokeAt: []int{53}}},
		{"long session, 8 revocations", RevocationParams{
			Clients: 8, Credentials: 16, Steps: 2000, PollEvery: 5, CRLEvery: 10,
			RevokeAt: []int{101, 303, 507, 701, 903, 1101, 1303, 1507}}},
		{"many clients", RevocationParams{
			Clients: 32, Credentials: 16, Steps: 1000, PollEvery: 5, CRLEvery: 10, RevokeAt: []int{53}}},
	} {
		results, err := RunRevocation(cfg.p)
		if err != nil {
			return err
		}
		r.printf("")
		r.printf("%s (clients=%d creds=%d steps=%d):", cfg.label, cfg.p.Clients, cfg.p.Credentials, cfg.p.Steps)
		r.printf("  %-14s %10s %12s %10s", "scheme", "messages", "bytes", "staleness")
		for _, res := range results {
			r.printf("  %-14s %10d %12d %10d", res.Scheme, res.Messages, byteTotal(res.Bytes), res.StalenessSteps)
		}
	}
	return nil
}
