package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// helpText maps metric names to their # HELP strings. The exposition
// conformance test (cmd/drbacd) fails when a daemon-exported metric has no
// entry and when an entry names a metric no daemon component registers, so
// adding a metric means adding its help here (or via SetHelp for
// dynamically named metrics like the per-SLO gauges), and retiring one
// means deleting its row.
var (
	helpMu   sync.RWMutex
	helpText = map[string]string{
		// wallet
		"drbac_wallet_publish_total":        "Delegations accepted by Publish.",
		"drbac_wallet_publish_errors_total": "Publish attempts rejected (validation, revocation, store errors).",
		"drbac_wallet_revocations_total":    "Revocations applied.",
		"drbac_wallet_revoke_errors_total":  "Revoke attempts rejected.",
		"drbac_wallet_query_direct_total":   "Direct subject-to-object proof queries.",
		"drbac_wallet_query_subject_total":  "Subject-rooted proof enumeration queries.",
		"drbac_wallet_query_object_total":   "Object-rooted proof enumeration queries.",
		"drbac_wallet_query_noproof_total":  "Queries that found no proof.",
		"drbac_wallet_replay_skipped_total": "Changelog replay records skipped as already applied.",
		"drbac_wallet_store_errors_total":   "Journal writes that failed on a path with no caller to tell (expiry sweep, replicated drops, accepted revocations); memory and disk have diverged.",
		"drbac_search_nodes_total":          "Graph-search nodes expanded across proof searches.",
		"drbac_search_edges_total":          "Graph-search edges traversed across proof searches.",
		"drbac_search_pruned_total":         "Graph-search branches pruned (depth/constraint bounds).",
		"drbac_subs_events_total":           "Subscription events pushed to watchers.",
		"drbac_wallet_query_seconds":        "Proof-query latency in seconds.",
		"drbac_wallet_delegations":          "Live delegations resident in the wallet.",
		"drbac_wallet_revoked":              "Revoked delegation IDs tracked.",
		"drbac_wallet_ttl_tracked":          "Delegations tracked for TTL expiry.",
		"drbac_wallet_watches":              "Active subscription watches.",
		"drbac_wallet_cache_hits":           "Proof-cache hits.",
		"drbac_wallet_cache_misses":         "Proof-cache misses.",
		"drbac_wallet_cache_invalidations":  "Proof-cache entries invalidated by mutations.",
		"drbac_wallet_cache_entries":        "Proof-cache resident entries.",
		"drbac_wallet_cache_negatives":      "Proof-cache resident negative (no-proof) entries.",
		"drbac_sigcache_hits":               "Signature-verification cache hits.",
		"drbac_sigcache_misses":             "Signature-verification cache misses.",
		"drbac_sigcache_evictions":          "Signature-verification cache evictions.",
		"drbac_sigcache_size":               "Signature-verification cache resident entries.",

		// discovery
		"drbac_discovery_total":                     "Chain discoveries attempted.",
		"drbac_discovery_found_total":               "Chain discoveries that produced a proof.",
		"drbac_discovery_rounds_total":              "Search rounds executed across discoveries.",
		"drbac_discovery_remote_queries_total":      "Remote wallet queries issued by discovery.",
		"drbac_discovery_delegations_fetched_total": "Delegations fetched from remote wallets during discovery.",
		"drbac_discovery_wallets_contacted_total":   "Distinct remote wallets contacted during discovery.",
		"drbac_discovery_seconds":                   "End-to-end chain-discovery latency in seconds.",

		// remote server / client
		"drbac_server_requests_total":           "Wire requests served.",
		"drbac_server_errors_total":             "Wire requests answered with an error.",
		"drbac_server_noproof_total":            "Wire queries answered no-proof.",
		"drbac_server_pushes_total":             "Subscription pushes sent.",
		"drbac_server_push_errors_total":        "Subscription pushes that failed to send.",
		"drbac_server_stream_overflows_total":   "Changelog-stream pushes dropped because a follower's buffer was full (it resyncs).",
		"drbac_server_connections_total":        "Connections accepted.",
		"drbac_server_handshake_failures_total": "Inbound connections dropped for failing the transport handshake.",
		"drbac_server_active_connections":       "Connections currently open.",
		"drbac_server_request_seconds":          "Server-side request handling latency in seconds.",
		"drbac_remote_push_decode_errors_total": "Subscription pushes the client failed to decode.",

		// peer pool
		"drbac_peer_dials_total":         "Peer dial attempts.",
		"drbac_peer_dial_failures_total": "Peer dial attempts that failed.",
		"drbac_peer_fastfails_total":     "Peer requests fast-failed by an open circuit breaker.",
		"drbac_peer_evictions_total":     "Pooled peer connections evicted.",
		"drbac_peer_circuit_opens_total": "Peer circuit breakers opened.",
		"drbac_peer_connections":         "Pooled peer connections currently held.",

		// replica
		"drbac_replica_events_applied_total": "Changelog events applied by the follower.",
		"drbac_replica_resyncs_total":        "Full resyncs triggered by sequence gaps.",
		"drbac_replica_events_skipped_total": "Changelog events skipped as already applied.",
		"drbac_replica_applied_seq":          "Highest changelog sequence applied.",
		"drbac_replica_lag_seconds":          "Age in seconds of the last applied event when it was applied; 0 after every sync.",
		"drbac_replica_connected":            "1 when the follower's subscription stream is connected.",

		// proxy
		"drbac_proxy_hits_total":  "Proxy queries answered from the local wallet.",
		"drbac_proxy_pulls_total": "Proxy queries that pulled proofs from the upstream wallet.",

		// cluster
		"drbac_cluster_map_adoptions_total": "Newer shard maps adopted (resharding epoch bumps).",
		"drbac_cluster_redirects_total":     "Shard redirects issued (member) or followed (router).",
		"drbac_cluster_routes_total":        "Mutations routed to (router) or served by (member) a shard.",
		"drbac_cluster_scatter_total":       "Cross-shard scatter-gather operations.",
		"drbac_cluster_epoch":               "Installed shard map epoch.",
		"drbac_cluster_shards":              "Shards in the installed map.",

		// dht
		"drbac_dht_lookups_total":        "Iterative DHT lookups started.",
		"drbac_dht_stores_total":         "Provider records accepted for storage.",
		"drbac_dht_stores_refused_total": "Provider records refused (unsigned, mis-signed, malformed, expired).",
		"drbac_dht_bucket_peers":         "Contacts held in the routing table.",
		"drbac_dht_provider_records":     "Provider records held for other nodes to find.",

		// logstore
		"drbac_logstore_appends_total":                 "Records appended to the log store.",
		"drbac_logstore_seals_total":                   "Segments sealed.",
		"drbac_logstore_compactions_total":             "Segment compactions completed.",
		"drbac_logstore_compact_reclaimed_bytes_total": "Bytes reclaimed by compaction.",
		"drbac_logstore_compact_failures_total":        "Background compaction passes that failed; the old segments stay and the next tick retries.",
		"drbac_logstore_commit_batches_total":          "Group-commit fsync batches flushed.",
		"drbac_logstore_commit_batch_records_total":    "Records flushed across commit batches.",
		"drbac_logstore_segments":                      "Log segments on disk.",
		"drbac_logstore_active_segment_bytes":          "Bytes written to the active segment.",
		"drbac_logstore_recovery_truncations_total":    "Torn tails truncated during recovery.",

		// trace collector
		"drbac_trace_completed_total":     "Traces fully assembled (every root span ended).",
		"drbac_trace_retained_total":      "Completed traces retained in the ring buffer.",
		"drbac_trace_sampled_out_total":   "Completed ordinary traces dropped by head sampling.",
		"drbac_trace_slow_total":          "Completed traces over the slow threshold.",
		"drbac_trace_error_total":         "Completed traces containing a failed span.",
		"drbac_trace_dropped_spans_total": "Spans dropped (untracked trace or per-trace span cap).",
		"drbac_trace_active":              "Traces currently assembling.",
		"drbac_trace_stored":              "Traces currently retained.",

		// identity
		"drbac_build_info": "Build identity; value is always 1, labels carry the version.",
	}
)

// SetHelp registers (or replaces) the # HELP text for a metric name. Used
// by components that mint metric names at runtime (for example per-SLO
// quantile gauges).
func SetHelp(name, help string) {
	helpMu.Lock()
	defer helpMu.Unlock()
	helpText[name] = help
}

// helpFor returns the registered help text for name, "" when absent.
func helpFor(name string) string {
	helpMu.RLock()
	defer helpMu.RUnlock()
	return helpText[name]
}

// RegisterBuildInfo registers the drbac_build_info constant gauge on reg
// with version and Go-toolchain labels, and returns the labels. Call once
// at daemon startup.
func RegisterBuildInfo(reg *Registry) map[string]string {
	labels := map[string]string{
		"version":   "devel",
		"goversion": runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			labels["version"] = v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				labels["revision"] = s.Value[:12]
			}
		}
	}
	reg.SetInfo("drbac_build_info", labels)
	return labels
}
