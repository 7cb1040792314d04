package main

import (
	"bytes"
	"strings"
	"testing"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/dht"
	"drbac/internal/gossip"
	"drbac/internal/logstore"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/replica"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// TestPrometheusExpositionLints assembles a registry out of everything a
// daemon in any role registers on its Obs — wallet instruments, a durable
// log store, the trace collector, both SLOs, the build-info gauge, the wire
// server, a replica follower, a cluster member and router, a peer pool, and
// the -dht pair (DHT node, gossip member) — and runs the exposition through
// the promlint-style checker: every metric must carry HELP and TYPE,
// names and labels must be legal, counters must end in _total, and
// histogram bucket ladders must be ascending, cumulative, and +Inf-capped.
// This is the golden gate keeping new instruments scrape-clean.
func TestPrometheusExpositionLints(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	o.SetCollector(obs.NewCollector(reg, obs.CollectorConfig{Capacity: traceRetain, SampleRate: traceSample}))
	o.RegisterSLO(obs.NewSLO(reg, "query", sloQueryP99, 0, 0))
	o.RegisterSLO(obs.NewSLO(reg, "publish", sloPublishP99, 0, 0))
	obs.RegisterBuildInfo(reg)

	st, err := logstore.Open(t.TempDir(), logstore.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	owner, err := core.NewIdentity("Owner")
	if err != nil {
		t.Fatal(err)
	}
	w := wallet.New(wallet.Config{Owner: owner, Obs: o, Store: st})

	net := transport.NewMemNetwork()
	ln, err := net.Listen("self", owner)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.Uniform([][]string{{"self"}, {"other"}})
	if err != nil {
		t.Fatal(err)
	}
	member, err := cluster.NewNode(0, m, o)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.ServeOptions(w, ln, remote.Options{Obs: o, Cluster: member}).Close()
	pool := peer.NewManager(peer.Config{Dialer: net.Dialer(owner), Obs: o})
	defer pool.Close()
	follower, err := replica.Start(replica.Config{
		Local: wallet.New(wallet.Config{}), Addrs: []string{"self"}, Peers: pool, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	router, err := cluster.NewRouter(cluster.RouterConfig{Map: m, Peers: pool, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if _, err := dht.NewNode(dht.Config{Identity: owner, Addr: "self", Peers: pool, Obs: o}); err != nil {
		t.Fatal(err)
	}
	if _, err := gossip.NewNode(gossip.Config{SelfAddr: "self", Peers: pool, Obs: o}); err != nil {
		t.Fatal(err)
	}

	// Drive a little traffic so counters, the latency histogram, the SLO
	// windows, and the trace collector all have samples.
	if _, err := w.QueryDirect(wallet.Query{}); err == nil {
		t.Fatal("empty query should fail")
	}
	sp := o.StartSpan(obs.NewTraceID(), "discovery")
	sp.End()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, problem := range obs.LintExposition(buf.Bytes()) {
		t.Errorf("lint: %s", problem)
	}
	// Stated here as well as in the linter: a family registered without a
	// row in obs/help.go fails this test, not a scrape.
	families := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families++
			name, _, _ = strings.Cut(name, " ")
			if !strings.Contains(buf.String(), "# HELP "+name+" ") {
				t.Errorf("family %s has no help text", name)
			}
		}
	}
	if families < 90 {
		t.Errorf("exposition holds %d families; a daemon's components register over 90", families)
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", buf.String())
	}
}
