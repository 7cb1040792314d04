package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/remote"
	"drbac/internal/sigcache"
	"drbac/internal/transport"
	"drbac/internal/wallet"
	"drbac/internal/wire"
)

func TestRenderStatsGolden(t *testing.T) {
	resp := wire.StatsResp{
		Role: "replica",
		Seq:  42,
		Wire: &wire.WireStats{
			ConnCodec:           "binary",
			BinaryFramesEncoded: 9, BinaryFramesDecoded: 8,
			BinaryBytesEncoded: 900, BinaryBytesDecoded: 640,
			DelegationHits: 12, DelegationMisses: 2,
			Pool: bufpool.Stats{Gets: 17, Puts: 16, Discards: 1, News: 2},
		},
		Metrics: obs.Snapshot{
			Counters: map[string]int64{
				"drbac_wallet_query_direct_total": 14,
				"drbac_server_requests_total":     20,
			},
			Gauges: map[string]int64{
				"drbac_wallet_delegations":         3,
				"drbac_wallet_revoked":             1,
				"drbac_wallet_ttl_tracked":         2,
				"drbac_wallet_watches":             0,
				"drbac_wallet_cache_hits":          10,
				"drbac_wallet_cache_misses":        4,
				"drbac_wallet_cache_invalidations": 1,
				"drbac_wallet_cache_entries":       5,
				"drbac_wallet_cache_negatives":     2,
				"drbac_sigcache_hits":              12,
				"drbac_sigcache_misses":            6,
				"drbac_sigcache_evictions":         1,
				"drbac_sigcache_size":              5,
				"drbac_peer_connections":           2,
			},
			Histograms: map[string]obs.HistogramSnapshot{
				"drbac_wallet_query_seconds": {Count: 4, Sum: 0.008},
			},
		},
	}
	var buf bytes.Buffer
	renderStats(&buf, "wallet.example:7100", resp)
	want := `wallet wallet.example:7100
  role         replica
  seq          42
  delegations  3
  revoked      1
  ttl-tracked  2
  watches      0
proof cache
  hits         10
  misses       4
  invalidated  1
  entries      5
  negatives    2
sig cache
  hits         12
  misses       6
  evictions    1
  size         5
wire codec (connection: binary)
  bin frames   9 enc / 8 dec (900 / 640 bytes)
  delegations  12 hits / 2 misses
  pool         17 gets / 16 puts / 1 discards / 2 news
counters
  drbac_server_requests_total                  20
  drbac_wallet_query_direct_total              14
gauges
  drbac_peer_connections                       2
histograms
  drbac_wallet_query_seconds                   count=4 mean=2.000ms
`
	if buf.String() != want {
		t.Errorf("renderStats output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// An answer with an empty snapshot — an uninstrumented server's — renders
// the wallet heading and nothing else.
func TestRenderStatsOmitsEmptySections(t *testing.T) {
	var buf bytes.Buffer
	renderStats(&buf, "w", wire.StatsResp{Seq: 3})
	if want := "wallet w\n  seq          3\n"; buf.String() != want {
		t.Errorf("empty snapshot rendered:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRenderStatsClusterSection(t *testing.T) {
	resp := wire.StatsResp{
		Role: "gateway",
		Metrics: obs.Snapshot{
			Counters: map[string]int64{
				"drbac_cluster_map_adoptions_total": 1,
				"drbac_cluster_routes_total":        21,
				"drbac_cluster_redirects_total":     2,
				"drbac_cluster_scatter_total":       11,
			},
			Gauges: map[string]int64{"drbac_cluster_epoch": 3, "drbac_cluster_shards": 4},
		},
	}
	var buf bytes.Buffer
	renderStats(&buf, "gw.example:7100", resp)
	want := `wallet gw.example:7100
  role         gateway
  seq          0
cluster
  epoch        3
  shards       4
  adoptions    1
  routes       21
  redirects    2
  scatters     11
`
	if buf.String() != want {
		t.Errorf("renderStats cluster section:\n%s\nwant:\n%s", buf.String(), want)
	}

	// A member names its shard in its role and registers no scatter count.
	resp.Role = "shard-2"
	delete(resp.Metrics.Counters, "drbac_cluster_scatter_total")
	buf.Reset()
	renderStats(&buf, "shard2.example:7100", resp)
	if !bytes.Contains(buf.Bytes(), []byte("  role         shard-2\n")) || bytes.Contains(buf.Bytes(), []byte("scatters")) {
		t.Errorf("member stats:\n%s", buf.String())
	}

	// No cluster section outside a cluster.
	buf.Reset()
	renderStats(&buf, "w", wire.StatsResp{})
	if bytes.Contains(buf.Bytes(), []byte("cluster")) {
		t.Errorf("non-cluster stats rendered a cluster section:\n%s", buf.String())
	}
}

// TestRenderStatsDHTSection: a daemon older than the DHT's retirement still
// answers stats with a dht section. It decodes like any stats answer and
// renders without one.
func TestRenderStatsDHTSection(t *testing.T) {
	var resp wire.StatsResp
	body := `{"role":"primary","seq":4,"delegations":2,"metrics":{"gauges":{"drbac_wallet_delegations":2}},"dht":{"id":"8b2f1c44","bucketPeers":5,"providerRecords":2,"lookups":17,"stores":9,"storesRefused":1,"announced":1}}`
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("an older daemon's stats answer: %v", err)
	}
	var buf bytes.Buffer
	renderStats(&buf, "seed.example:7100", resp)
	if !bytes.Contains(buf.Bytes(), []byte("  delegations  2\n")) {
		t.Errorf("renderStats lost the wallet section:\n%s", buf.String())
	}
	for _, retired := range []string{"dht", "bucket-peers", "gossip"} {
		if bytes.Contains(buf.Bytes(), []byte(retired)) {
			t.Errorf("renderStats renders the retired %s section:\n%s", retired, buf.String())
		}
	}
}

// helpRow matches one family row of internal/obs/help.go's table.
var helpRow = regexp.MustCompile(`(?m)^\t\t"(drbac_[a-z0-9_]*)":`)

// TestStatsSectionsAreHelpRows binds the sections to the help table: a
// family renamed or retired without its section fails here, not as a
// silently missing line.
func TestStatsSectionsAreHelpRows(t *testing.T) {
	src, err := os.ReadFile("../../internal/obs/help.go")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, m := range helpRow.FindAllStringSubmatch(string(src), -1) {
		rows[m[1]] = true
	}
	seen := make(map[string]bool)
	for _, row := range statsRows {
		if !rows[row.family] {
			t.Errorf("section %q row %q names %s, which is no row of obs/help.go", row.section, row.label, row.family)
		}
		if seen[row.family] {
			t.Errorf("%s is shown by two section rows", row.family)
		}
		seen[row.family] = true
	}
}

// renderedFamilies parses renderStats output back into the families it
// shows and the value shown for each, one entry per appearance: a counters
// or gauges line names its family, a section row names it through
// statsRows.
func renderedFamilies(t *testing.T, out string) map[string][]int64 {
	t.Helper()
	labels := make(map[string]map[string]string) // section title -> label -> family
	for _, row := range statsRows {
		if labels[row.section] == nil {
			labels[row.section] = make(map[string]string)
		}
		labels[row.section][row.label] = row.family
	}
	got := make(map[string][]int64)
	section := ""
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "  ") {
			section = line
			if strings.HasPrefix(line, "wallet ") {
				section = ""
			}
			continue
		}
		fields := strings.Fields(line)
		family := labels[section][fields[0]]
		if section == "counters" || section == "gauges" {
			family = fields[0]
		}
		if family == "" {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		got[family] = append(got[family], v)
	}
	return got
}

// TestStatsRendersEachNumberOnce serves an instrumented cluster member,
// renders its stats answer, and requires every counter and gauge the answer
// carries to appear exactly once with the answer's value, and every section
// row to match the serving registry.
func TestStatsRendersEachNumberOnce(t *testing.T) {
	issuer, err := core.NewIdentity("BigISP")
	if err != nil {
		t.Fatal(err)
	}
	maria, err := core.NewIdentity("Maria")
	if err != nil {
		t.Fatal(err)
	}
	dir := core.NewDirectory(issuer.Entity(), maria.Entity())
	parsed, err := core.ParseDelegation("[Maria -> BigISP.member] BigISP", dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Issue(issuer, parsed.Template, time.Now())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	w := wallet.New(wallet.Config{Owner: issuer, Obs: o, SigCache: sigcache.New(0)})
	m, err := cluster.Uniform([][]string{{"self"}})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.NewNode(0, m, o)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork()
	ln, err := net.Listen("self", issuer)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.ServeOptions(w, ln, remote.Options{Obs: o, Role: "shard-0", Cluster: node}).Close()
	ctx := context.Background()
	c, err := remote.Dial(ctx, net.Dialer(maria), "self")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish(ctx, d, nil, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.QueryDirect(ctx, d.Subject, d.Object, nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	renderStats(&buf, "self", resp)
	got := renderedFamilies(t, buf.String())
	for _, values := range []map[string]int64{resp.Metrics.Counters, resp.Metrics.Gauges} {
		for name, v := range values {
			if want := []int64{v}; !reflect.DeepEqual(got[name], want) {
				t.Errorf("%s rendered as %v, want %v once", name, got[name], want)
			}
		}
	}
	now := reg.Snapshot()
	for _, row := range statsRows {
		want, ok := now.Counters[row.family]
		if !ok {
			want, ok = now.Gauges[row.family]
		}
		if !ok && row.family != "drbac_cluster_scatter_total" { // a member scatters nothing
			t.Errorf("the serving registry has no %s", row.family)
		}
		if ok && !reflect.DeepEqual(got[row.family], []int64{want}) {
			t.Errorf("%s %q rendered %v, registry holds %d", row.section, row.label, got[row.family], want)
		}
	}
	if got["drbac_wallet_delegations"][0] != 1 || got["drbac_cluster_routes_total"][0] != 1 || got["drbac_wallet_cache_hits"][0] == 0 {
		t.Errorf("traffic not reflected:\n%s", buf.String())
	}
	if t.Failed() {
		t.Logf("rendered:\n%s", buf.String())
	}
}

// parentStatsResp is the stats answer as builds before the registry became
// its one export declared it: the hand-copied summary and cluster section
// beside the same snapshot.
type parentStatsResp struct {
	Role               string       `json:"role,omitempty"`
	Seq                uint64       `json:"seq"`
	Delegations        int          `json:"delegations"`
	Revoked            int          `json:"revoked"`
	TTLTracked         int          `json:"ttlTracked"`
	Watches            int          `json:"watches"`
	CacheHits          int64        `json:"cacheHits"`
	CacheMisses        int64        `json:"cacheMisses"`
	CacheInvalidations int64        `json:"cacheInvalidations"`
	CacheEntries       int          `json:"cacheEntries"`
	CacheNegatives     int          `json:"cacheNegatives"`
	SigCacheHits       int64        `json:"sigCacheHits"`
	SigCacheMisses     int64        `json:"sigCacheMisses"`
	SigCacheEvictions  int64        `json:"sigCacheEvictions"`
	SigCacheSize       int64        `json:"sigCacheSize"`
	Metrics            obs.Snapshot `json:"metrics"`
	Cluster            *struct {
		Epoch     uint64           `json:"epoch"`
		Shard     int              `json:"shard"`
		Shards    int              `json:"shards"`
		Routes    map[string]int64 `json:"routes,omitempty"`
		Redirects int64            `json:"redirects,omitempty"`
		Scatters  int64            `json:"scatters,omitempty"`
	} `json:"cluster,omitempty"`
	Wire *wire.WireStats `json:"wire,omitempty"`
}

// TestStatsMixedVersions: a stats answer crosses versions both ways. An
// older daemon's answer renders its sections from its snapshot (the
// summary fields it also sends are ignored); an older CLI decodes this
// build's answer, with a zero summary.
func TestStatsMixedVersions(t *testing.T) {
	t.Run("older daemon", func(t *testing.T) {
		// An older gateway's answer, as it encoded it: 13 summary fields, a
		// cluster object, and a snapshot without the epoch and shard gauges
		// its router did not register.
		body := `{"role":"gateway","seq":7,"delegations":2,"revoked":1,"ttlTracked":0,"watches":1,` +
			`"cacheHits":5,"cacheMisses":3,"cacheInvalidations":1,"cacheEntries":2,"cacheNegatives":1,` +
			`"sigCacheHits":9,"sigCacheMisses":4,"sigCacheEvictions":0,"sigCacheSize":4,` +
			`"metrics":{"counters":{"drbac_cluster_map_adoptions_total":0,"drbac_cluster_redirects_total":1,` +
			`"drbac_cluster_routes_total":3,"drbac_cluster_scatter_total":4,"drbac_server_requests_total":12},` +
			`"gauges":{"drbac_wallet_delegations":2,"drbac_wallet_revoked":1,"drbac_wallet_ttl_tracked":0,` +
			`"drbac_wallet_watches":1,"drbac_wallet_cache_hits":5,"drbac_wallet_cache_misses":3,` +
			`"drbac_wallet_cache_invalidations":1,"drbac_wallet_cache_entries":2,"drbac_wallet_cache_negatives":1,` +
			`"drbac_sigcache_hits":9,"drbac_sigcache_misses":4,"drbac_sigcache_evictions":0,"drbac_sigcache_size":4}},` +
			`"cluster":{"epoch":3,"shard":-1,"shards":2,"routes":{"0":1,"1":2},"redirects":1,"scatters":4}}`
		var resp wire.StatsResp
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("an older daemon's stats answer: %v", err)
		}
		var buf bytes.Buffer
		renderStats(&buf, "gw.example:7100", resp)
		want := `wallet gw.example:7100
  role         gateway
  seq          7
  delegations  2
  revoked      1
  ttl-tracked  0
  watches      1
proof cache
  hits         5
  misses       3
  invalidated  1
  entries      2
  negatives    1
sig cache
  hits         9
  misses       4
  evictions    0
  size         4
cluster
  adoptions    0
  routes       3
  redirects    1
  scatters     4
counters
  drbac_server_requests_total                  12
`
		if buf.String() != want {
			t.Errorf("older daemon's answer rendered:\n%s\nwant:\n%s", buf.String(), want)
		}
	})

	t.Run("older CLI", func(t *testing.T) {
		resp := wire.StatsResp{
			Role: "primary", Seq: 9,
			Metrics: obs.Snapshot{Gauges: map[string]int64{"drbac_wallet_delegations": 4}},
			Wire:    &wire.WireStats{ConnCodec: wire.CodecBinary, BinaryFramesEncoded: 5},
		}
		frame, err := (wire.Codec{}).Encode(wire.TOK, 3, resp)
		if err != nil {
			t.Fatal(err)
		}
		env, err := (wire.Codec{}).Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		var old parentStatsResp
		if err := wire.DecodeBody(env, &old); err != nil {
			t.Fatalf("an older CLI decoding this build's answer: %v", err)
		}
		if old.Role != "primary" || old.Seq != 9 || old.Metrics.Gauges["drbac_wallet_delegations"] != 4 ||
			old.Wire == nil || old.Wire.BinaryFramesEncoded != 5 {
			t.Errorf("older CLI decoded %+v", old)
		}
		if old.Delegations != 0 || old.CacheHits != 0 || old.SigCacheSize != 0 || old.Cluster != nil {
			t.Errorf("older CLI's summary = %+v, want zero", old)
		}
	})
}
