package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/dht"
	"drbac/internal/discovery"
	"drbac/internal/logstore"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/proxy"
	"drbac/internal/remote"
	"drbac/internal/replica"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// helpRow matches one family row of internal/obs/help.go's table, the same
// lines `make surface` counts.
var helpRow = regexp.MustCompile(`(?m)^\t\t"(drbac_[a-z0-9_]*)":`)

// lazyFamilies are help.go rows no component registers until the event they
// count first happens, so an idle exposition lacks them.
var lazyFamilies = map[string]string{
	"drbac_remote_push_decode_errors_total": "a client creates it on its first undecodable push",
}

// TestPrometheusExpositionLints assembles a registry out of everything a
// daemon in any role registers on its Obs — wallet instruments, a durable
// log store, the trace collector, both SLOs, the build-info gauge, the wire
// server, a replica follower, a cluster member and router, a peer pool, a
// discovery agent, a caching proxy and a DHT node — and runs the exposition
// through the promlint-style checker: every metric must carry HELP and TYPE,
// names and labels must be legal, counters must end in _total, and
// histogram bucket ladders must be ascending, cumulative, and +Inf-capped.
// Its families must be exactly help.go's rows (less lazyFamilies) plus the
// per-SLO families, so a row left behind by a retired component fails here.
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
	discovery.NewAgent(discovery.Config{Local: w, Peers: pool, Obs: o}).Close()
	upstream, err := remote.Dial(context.Background(), net.Dialer(owner), "self")
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	px, err := proxy.New(proxy.Config{Local: wallet.New(wallet.Config{}), Upstream: upstream, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

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
	// row in obs/help.go fails this test, not a scrape; so does a row no
	// component registers.
	src, err := os.ReadFile("../../internal/obs/help.go")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, m := range helpRow.FindAllStringSubmatch(string(src), -1) {
		rows[m[1]] = true
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		switch {
		case !strings.Contains(buf.String(), "# HELP "+name+" "):
			t.Errorf("family %s has no help text", name)
		case rows[name]:
			delete(rows, name)
		case !strings.HasPrefix(name, "drbac_slo_"):
			t.Errorf("family %s is registered but has no row in obs/help.go", name)
		}
	}
	for name := range rows {
		if lazyFamilies[name] == "" {
			t.Errorf("obs/help.go row %s is registered by no daemon component: delete the row with what registered it", name)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", buf.String())
	}
}
