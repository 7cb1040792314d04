package main

import (
	"bytes"
	"testing"

	"drbac/internal/bufpool"
	"drbac/internal/obs"
	"drbac/internal/wire"
)

func TestRenderStatsGolden(t *testing.T) {
	resp := wire.StatsResp{
		Role:               "replica",
		Seq:                42,
		Delegations:        3,
		Revoked:            1,
		TTLTracked:         2,
		Watches:            0,
		CacheHits:          10,
		CacheMisses:        4,
		CacheInvalidations: 1,
		CacheEntries:       5,
		CacheNegatives:     2,
		SigCacheHits:       12,
		SigCacheMisses:     6,
		SigCacheEvictions:  1,
		SigCacheSize:       5,
		Wire: &wire.WireStats{
			ConnCodec:           "binary",
			BinaryFramesEncoded: 9, BinaryFramesDecoded: 8,
			BinaryBytesEncoded: 900, BinaryBytesDecoded: 640,
			InternHits: 30, InternMisses: 3,
			Pool: bufpool.Stats{Gets: 17, Puts: 16, Discards: 1, News: 2},
		},
		Metrics: obs.Snapshot{
			Counters: map[string]int64{
				"drbac_wallet_query_direct_total": 14,
				"drbac_server_requests_total":     20,
			},
			Gauges: map[string]int64{"drbac_wallet_delegations": 3},
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
  intern       30 hits / 3 misses
  pool         17 gets / 16 puts / 1 discards / 2 news
counters
  drbac_server_requests_total                  20
  drbac_wallet_query_direct_total              14
gauges
  drbac_wallet_delegations                     3
histograms
  drbac_wallet_query_seconds                   count=4 mean=2.000ms
`
	if buf.String() != want {
		t.Errorf("renderStats output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRenderStatsOmitsEmptySections(t *testing.T) {
	var buf bytes.Buffer
	renderStats(&buf, "w", wire.StatsResp{})
	out := buf.String()
	for _, section := range []string{"counters", "gauges", "histograms"} {
		if bytes.Contains([]byte(out), []byte(section)) {
			t.Errorf("empty snapshot rendered section %q:\n%s", section, out)
		}
	}
}

func TestRenderStatsClusterSection(t *testing.T) {
	resp := wire.StatsResp{
		Cluster: &wire.ClusterStats{
			Epoch:     3,
			Shard:     -1,
			Shards:    4,
			Routes:    map[string]int64{"0": 7, "1": 5, "2": 9},
			Redirects: 2,
			Scatters:  11,
		},
	}
	var buf bytes.Buffer
	renderStats(&buf, "gw.example:7100", resp)
	want := `cluster
  epoch        3
  shard        gateway
  shards       4
  redirects    2
  scatters     11
  routed->0    7
  routed->1    5
  routed->2    9
`
	if !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Errorf("renderStats cluster section:\n%s\nwant to contain:\n%s", buf.String(), want)
	}

	// A member renders its numeric shard ID.
	resp.Cluster.Shard = 2
	buf.Reset()
	renderStats(&buf, "shard2.example:7100", resp)
	if !bytes.Contains(buf.Bytes(), []byte("  shard        2\n")) {
		t.Errorf("member stats lack the shard line:\n%s", buf.String())
	}

	// No cluster section outside a cluster.
	buf.Reset()
	renderStats(&buf, "w", wire.StatsResp{})
	if bytes.Contains(buf.Bytes(), []byte("cluster")) {
		t.Errorf("non-cluster stats rendered a cluster section:\n%s", buf.String())
	}
}

func TestRenderStatsDHTSection(t *testing.T) {
	resp := wire.StatsResp{
		DHT: &wire.DHTStats{
			ID:              "8b2f1c44",
			BucketPeers:     5,
			ProviderRecords: 2,
			Lookups:         17,
			Stores:          9,
			StoresRefused:   1,
			Announced:       1,
			GossipAlive:     4,
			GossipSuspect:   1,
			GossipDead:      2,
		},
	}
	var buf bytes.Buffer
	renderStats(&buf, "seed.example:7100", resp)
	want := `dht
  id           8b2f1c44
  bucket-peers 5
  records      2
  announced    1
  lookups      17
  stores       9
  refused      1
gossip
  alive        4
  suspect      1
  dead         2
`
	if !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Errorf("renderStats dht section:\n%s\nwant to contain:\n%s", buf.String(), want)
	}

	// No dht section when the wallet doesn't serve the DHT.
	buf.Reset()
	renderStats(&buf, "w", wire.StatsResp{})
	if bytes.Contains(buf.Bytes(), []byte("dht")) {
		t.Errorf("non-dht stats rendered a dht section:\n%s", buf.String())
	}
}
