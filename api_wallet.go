package drbac

import (
	"io"
	"log/slog"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/logstore"
	"drbac/internal/obs"
	"drbac/internal/sigcache"
	"drbac/internal/subs"
	"drbac/internal/wallet"
)

// Wallet-layer re-exports: the credential repository (§4.1), proof
// monitors (§4.2.2), and the subscription event model.
type (
	// Wallet is a dRBAC credential repository.
	Wallet = wallet.Wallet
	// WalletConfig parameterizes a wallet.
	WalletConfig = wallet.Config
	// Query is an authorization question against a wallet.
	Query = wallet.Query
	// Monitor continuously tracks a proof's validity.
	Monitor = wallet.Monitor
	// MonitorEvent reports a monitored relationship changing.
	MonitorEvent = wallet.MonitorEvent
	// MonitorEventKind classifies monitor events.
	MonitorEventKind = wallet.MonitorEventKind
	// Event is a delegation status update.
	Event = subs.Event
	// EventKind classifies delegation status updates.
	EventKind = subs.EventKind
	// Clock is the injectable time source wallets run on.
	Clock = clock.Clock
	// FakeClock is a manually advanced clock for tests and simulations.
	FakeClock = clock.Fake
	// SearchDirection selects forward, reverse, or bidirectional search.
	SearchDirection = graph.Direction
	// SearchStats accumulates search effort counters.
	SearchStats = graph.Stats
	// WalletStore is the wallet's journal: the state a wallet is built from
	// (Load, read once) and the record of each change to it. The wallet's
	// memory, not the store, is what queries read.
	WalletStore = wallet.Store
	// WalletStats snapshots wallet state and proof-cache counters.
	WalletStats = wallet.Stats
	// ProofCacheStats reports proof-cache hit/miss/invalidation counters.
	ProofCacheStats = wallet.CacheStats
	// SigCache is a sharded verified-signature memo; wallets, proxies, and
	// replicas route delegation signature checks through one.
	SigCache = sigcache.Cache
	// SigCacheStats reports a signature memo's hit/miss/eviction counters.
	SigCacheStats = sigcache.Stats
	// SigVerifier routes signature checks through a verification memo;
	// set it in ValidateOptions to parallelize and memoize proof
	// validation. *SigCache implements it.
	SigVerifier = core.SigVerifier
	// Obs bundles a structured logger and a metrics registry; components
	// accept one (nil disables instrumentation).
	Obs = obs.Obs
	// MetricsRegistry is a name-keyed collection of counters, gauges, and
	// latency histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's instruments.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot is a point-in-time copy of one latency histogram.
	HistogramSnapshot = obs.HistogramSnapshot
	// TraceCollector retains completed traces in a bounded ring with tail
	// sampling: slow and erred traces always survive, the rest are
	// head-sampled. Attach one to an Obs with SetCollector.
	TraceCollector = obs.Collector
	// TraceCollectorConfig tunes a TraceCollector (capacity, slow
	// threshold, head-sampling rate).
	TraceCollectorConfig = obs.CollectorConfig
	// TraceSpan is one timed operation within a trace; spans started from
	// an Obs nest via StartChild and land in the trace collector on End.
	TraceSpan = obs.Span
	// SpanRecord is a completed span as retained by the collector.
	SpanRecord = obs.SpanRecord
	// LatencySLO tracks a latency objective: windowed p50/p99/p999 gauges
	// plus total/breach counters and an error-budget burn gauge.
	LatencySLO = obs.SLO
)

// Monitor and event constants.
const (
	MonitorReproved    = wallet.MonitorReproved
	MonitorInvalidated = wallet.MonitorInvalidated

	EventRevoked   = subs.Revoked
	EventExpired   = subs.Expired
	EventRenewed   = subs.Renewed
	EventStale     = subs.Stale
	EventPublished = subs.Published

	SearchForward       = graph.Forward
	SearchReverse       = graph.Reverse
	SearchBidirectional = graph.Bidirectional
)

// NewWallet constructs an empty wallet.
func NewWallet(cfg WalletConfig) *Wallet { return wallet.New(cfg) }

// NewSigCache returns a verified-signature memo bounded to roughly capacity
// entries; 0 means the default capacity.
func NewSigCache(capacity int) *SigCache { return sigcache.New(capacity) }

// SharedSigCache returns the process-wide signature memo that wallets use
// by default. Signatures are immutable, so sharing it is always safe.
func SharedSigCache() *SigCache { return sigcache.Shared() }

// NewMemStore returns the null journal, the default: it loads empty and
// records nothing, for a wallet that lives in memory alone.
func NewMemStore() WalletStore { return wallet.NewMemStore() }

// OpenLogStore opens (or creates) the durable wallet store, a segmented
// append-only log in the directory at path (SPEC §11): O(one record) disk
// work per mutation with background compaction, and a wallet rebuilt on the
// store after a restart serves the same proofs and keeps refusing revoked
// credentials. Close the returned store when done; a wallet does not close
// its store. The store also ships its segments for replica bootstrap.
func OpenLogStore(path string) (*logstore.Store, error) {
	return logstore.Open(path, logstore.Options{})
}

// SystemClock returns the real wall clock.
func SystemClock() Clock { return clock.System{} }

// NewFakeClock returns a manually advanced clock pinned at start.
var NewFakeClock = clock.NewFake

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewObs bundles a logger and a registry; either may be nil.
func NewObs(log *slog.Logger, reg *MetricsRegistry) *Obs { return obs.New(log, reg) }

// NewObsLogger builds a leveled slog logger writing text (or JSON) records
// to w — the logging convention every instrumented component shares.
func NewObsLogger(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	return obs.NewLogger(w, level, jsonFormat)
}

// NewTraceID mints a trace identifier for a top-level operation; pass it in
// Query.TraceID so local and remote wallets log under the same trace.
func NewTraceID() string { return obs.NewTraceID() }

// NewTraceCollector builds a retained-trace collector registering its
// drbac_trace_* metrics on reg (nil disables them). Attach it with
// Obs.SetCollector before constructing the components to be traced.
func NewTraceCollector(reg *MetricsRegistry, cfg TraceCollectorConfig) *TraceCollector {
	return obs.NewCollector(reg, cfg)
}

// NewLatencySLO builds a latency SLO named name (drbac_slo_<name>_*) with
// the given breach threshold, registering its gauges and counters on reg.
// objective 0 means 99%; window 0 means the last 1024 observations.
// Register it with Obs.RegisterSLO before constructing the wallet so the
// wallet resolves it at construction.
func NewLatencySLO(reg *MetricsRegistry, name string, threshold time.Duration, objective float64, window int) *LatencySLO {
	return obs.NewSLO(reg, name, threshold, objective, window)
}
