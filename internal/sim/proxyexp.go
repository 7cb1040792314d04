package sim

import (
	"context"
	"fmt"
	"time"

	"drbac/internal/remote"
	"drbac/internal/subs"
	"drbac/internal/transport"
)

// ProxyPoint is one row of EXP-S5 (hierarchical validation caches, §6):
// home-wallet network cost with clients attached directly versus through a
// caching proxy, for the same monitored credential and one revocation.
type ProxyPoint struct {
	Clients int
	// FlatHomeMessages/Bytes: home-side traffic with every client attached
	// directly to the home wallet.
	FlatHomeMessages int64
	FlatHomeBytes    int64
	// HierHomeMessages/Bytes: home-side traffic with one proxy attached to
	// the home and all clients attached to the proxy.
	HierHomeMessages int64
	HierHomeBytes    int64
}

// RunProxyExperiment measures EXP-S5 for one client population. Both
// configurations run the same workload: every client direct-queries the
// credential, subscribes to it, and then the issuer revokes it once;
// the run completes when every client has been notified.
func RunProxyExperiment(clients int) (ProxyPoint, error) {
	if clients < 1 {
		return ProxyPoint{}, fmt.Errorf("sim: clients must be positive")
	}
	pt := ProxyPoint{Clients: clients}
	var err error
	if pt.FlatHomeMessages, pt.FlatHomeBytes, err = runProxyConfig(clients, false); err != nil {
		return ProxyPoint{}, fmt.Errorf("flat config: %w", err)
	}
	if pt.HierHomeMessages, pt.HierHomeBytes, err = runProxyConfig(clients, true); err != nil {
		return ProxyPoint{}, fmt.Errorf("hierarchical config: %w", err)
	}
	return pt, nil
}

// runProxyConfig measures home-side traffic for one configuration: the
// world's network carries only the home's traffic, and a proxy serves its
// clients on a second network.
func runProxyConfig(clients int, hierarchical bool) (messages, bytes int64, err error) {
	w := NewWorld()
	defer w.Close()
	w.Ensure("Org", "ProxyOp", "User", "Client")

	home, err := w.Serve("home", "Org")
	if err != nil {
		return 0, 0, err
	}
	cred, err := w.Issue("[User -> Org.member] Org")
	if err != nil {
		return 0, 0, err
	}
	if err := home.Publish(cred); err != nil {
		return 0, 0, err
	}

	q, err := w.query("User", "Org.member")
	if err != nil {
		return 0, 0, err
	}

	clientAddr := "home"
	clientNet := w.Net
	if hierarchical {
		up, err := w.dial(w.Net.Dialer(w.Identity("ProxyOp")), "home")
		if err != nil {
			return 0, 0, err
		}
		px, err := remote.NewProxy(remote.ProxyConfig{Local: w.Wallet("ProxyOp"), Upstream: up, TTL: time.Minute})
		if err != nil {
			return 0, 0, err
		}
		w.own(px.Close)
		clientAddr, clientNet = "edge", transport.NewMemNetwork()
		edgeLn, err := clientNet.Listen(clientAddr, w.Identity("ProxyOp"))
		if err != nil {
			return 0, 0, err
		}
		w.own(px.Serve(edgeLn).Close)
	}

	notified := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		c, err := w.dial(clientNet.Dialer(w.Identity("Client")), clientAddr)
		if err != nil {
			return 0, 0, err
		}
		if _, err := c.QueryDirect(context.Background(), q.Subject, q.Object, nil, 0); err != nil {
			return 0, 0, err
		}
		if _, err := c.Subscribe(context.Background(), cred.ID(), func(ev subs.Event) {
			if ev.Kind == subs.Revoked {
				notified <- struct{}{}
			}
		}); err != nil {
			return 0, 0, err
		}
	}

	if err := home.Revoke(cred.ID(), w.Identity("Org").ID()); err != nil {
		return 0, 0, err
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < clients; i++ {
		select {
		case <-notified:
		case <-deadline:
			return 0, 0, fmt.Errorf("client notifications timed out (%d of %d)", i, clients)
		}
	}
	st := w.Net.Stats()
	return st.Messages, st.Bytes, nil
}

func proxyReport(r *Report) error {
	r.printf("%8s %12s %12s %12s %12s", "clients", "flat msgs", "flat bytes", "hier msgs", "hier bytes")
	for _, clients := range []int{1, 2, 4, 8, 16} {
		pt, err := RunProxyExperiment(clients)
		if err != nil {
			return err
		}
		r.printf("%8d %12d %12d %12d %12d", pt.Clients,
			pt.FlatHomeMessages, byteTotal(pt.FlatHomeBytes), pt.HierHomeMessages, byteTotal(pt.HierHomeBytes))
	}
	r.printf("home-wallet load grows with clients when they attach directly; behind a")
	r.printf("caching proxy it is constant (one subscription, one push per change).")
	return nil
}
