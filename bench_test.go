package drbac_test

// Benchmark harness: one benchmark per paper artifact.
//
//	Table 1   -> BenchmarkTable1BaseProof
//	Table 2   -> BenchmarkTable2AttributeAggregation
//	Table 3   -> BenchmarkTable3CaseStudyProof
//	Figure 1  -> BenchmarkFigure1WalletOps
//	Figure 2  -> BenchmarkFigure2DistributedProof
//	§4.2.3    -> BenchmarkSearchDirectionality, BenchmarkAttributePruning
//	§6        -> BenchmarkRevocationSchemes
//	§3.1.3    -> BenchmarkSeparability
//
// plus micro-benchmarks for the credential primitives. Run with
//
//	go test -bench=. -benchmem

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drbac"
	"drbac/internal/clock"
	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/dht"
	"drbac/internal/logstore"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/sim"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// benchWorld holds the Table 1 principals for the micro and table benches.
type benchWorld struct {
	ids map[string]*drbac.Identity
	dir *drbac.MemDirectory
	now time.Time
}

func newBenchWorld(b *testing.B) *benchWorld {
	b.Helper()
	w := &benchWorld{
		ids: make(map[string]*drbac.Identity),
		dir: drbac.NewDirectory(),
		now: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
	}
	for i, name := range []string{"BigISP", "AirNet", "Mark", "Sheila", "Maria"} {
		seed := make([]byte, 32)
		seed[0] = byte(i + 1)
		id, err := drbac.IdentityFromSeed(name, seed)
		if err != nil {
			b.Fatal(err)
		}
		w.ids[name] = id
		w.dir.Add(id.Entity())
	}
	return w
}

func (w *benchWorld) issue(b *testing.B, text string) *drbac.Delegation {
	b.Helper()
	parsed, err := drbac.ParseDelegation(text, w.dir)
	if err != nil {
		b.Fatal(err)
	}
	var issuer *drbac.Identity
	for _, id := range w.ids {
		if id.ID() == parsed.Issuer.ID() {
			issuer = id
		}
	}
	d, err := drbac.Issue(issuer, parsed.Template, w.now)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkTable1BaseProof measures assembling and validating the Table 1
// proof Maria => BigISP.member (one third-party delegation plus its
// two-step support proof).
func BenchmarkTable1BaseProof(b *testing.B) {
	w := newBenchWorld(b)
	d1 := w.issue(b, "[Mark -> BigISP.memberServices] BigISP")
	d2 := w.issue(b, "[BigISP.memberServices -> BigISP.member'] BigISP")
	d3 := w.issue(b, "[Maria -> BigISP.member] Mark")
	sup, err := drbac.NewProof(drbac.ProofStep{Delegation: d1}, drbac.ProofStep{Delegation: d2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := drbac.NewProof(drbac.ProofStep{Delegation: d3, Support: []*drbac.Proof{sup}})
		if err != nil {
			b.Fatal(err)
		}
		if err := proof.Validate(drbac.ValidateOptions{At: w.now}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2AttributeAggregation measures aggregating the Table 2
// valued-attribute chain and checking a constraint against it.
func BenchmarkTable2AttributeAggregation(b *testing.B) {
	w := newBenchWorld(b)
	dA := w.issue(b, "[Maria -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20 and AirNet.hours *= 0.3] AirNet")
	dB := w.issue(b, "[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet")
	pA, _ := drbac.NewProof(drbac.ProofStep{Delegation: dA})
	pB, _ := drbac.NewProof(drbac.ProofStep{Delegation: dB})
	proof, err := pA.Concat(pB)
	if err != nil {
		b.Fatal(err)
	}
	bw := drbac.AttributeRef{Namespace: w.ids["AirNet"].ID(), Name: "BW"}
	cons := []drbac.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 50}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag, err := proof.Aggregate()
		if err != nil {
			b.Fatal(err)
		}
		if !cons[0].Satisfied(ag) {
			b.Fatal("constraint should hold")
		}
		if ag.Value(bw, math.Inf(1)) != 100 {
			b.Fatal("wrong aggregation")
		}
	}
}

// BenchmarkTable3CaseStudyProof measures the full §5 authorization against
// a single wallet already holding all six delegations: the server-side
// cost of Maria's access decision once credentials are local.
func BenchmarkTable3CaseStudyProof(b *testing.B) {
	w := newBenchWorld(b)
	wal := drbac.NewWallet(drbac.WalletConfig{Directory: w.dir})
	d3 := w.issue(b, "[Sheila -> AirNet.mktg] AirNet")
	d4 := w.issue(b, "[AirNet.mktg -> AirNet.member'] AirNet")
	sup, _ := drbac.NewProof(drbac.ProofStep{Delegation: d3}, drbac.ProofStep{Delegation: d4})
	for _, d := range []*drbac.Delegation{
		w.issue(b, "[Maria -> BigISP.member] BigISP"),
		w.issue(b, "[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet"),
	} {
		if err := wal.Publish(d); err != nil {
			b.Fatal(err)
		}
	}
	d2 := w.issue(b, "[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20 and AirNet.hours *= 0.3] Sheila")
	if err := wal.Publish(d2, sup); err != nil {
		b.Fatal(err)
	}
	q := drbac.Query{
		Subject: drbac.SubjectEntity(w.ids["Maria"].ID()),
		Object:  drbac.NewRole(w.ids["AirNet"].ID(), "access"),
	}
	bw := drbac.AttributeRef{Namespace: w.ids["AirNet"].ID(), Name: "BW"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := wal.QueryDirect(q)
		if err != nil {
			b.Fatal(err)
		}
		ag, err := proof.Aggregate()
		if err != nil {
			b.Fatal(err)
		}
		if ag.Value(bw, math.Inf(1)) != 100 {
			b.Fatal("wrong outcome")
		}
	}
}

// BenchmarkFigure1WalletOps measures the three wallet primitives of
// Figure 1 against the two-delegation A => C.c wallet.
func BenchmarkFigure1WalletOps(b *testing.B) {
	w := newBenchWorld(b)
	// Reuse principals: BigISP as A's namespace holder etc. Build the
	// figure's two-delegation wallet.
	dAB := w.issue(b, "[Maria -> BigISP.b] BigISP")
	dBC := w.issue(b, "[BigISP.b -> AirNet.c] AirNet")
	subject := drbac.SubjectEntity(w.ids["Maria"].ID())
	object := drbac.NewRole(w.ids["AirNet"].ID(), "c")

	b.Run("publish", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wal := drbac.NewWallet(drbac.WalletConfig{Directory: w.dir})
			if err := wal.Publish(dAB); err != nil {
				b.Fatal(err)
			}
			if err := wal.Publish(dBC); err != nil {
				b.Fatal(err)
			}
		}
	})
	wal := drbac.NewWallet(drbac.WalletConfig{Directory: w.dir})
	if err := wal.Publish(dAB); err != nil {
		b.Fatal(err)
	}
	if err := wal.Publish(dBC); err != nil {
		b.Fatal(err)
	}
	b.Run("query-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wal.QueryDirect(drbac.Query{Subject: subject, Object: object}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-subject", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := wal.QuerySubject(subject, nil); len(got) != 2 {
				b.Fatal("wrong result count")
			}
		}
	})
	b.Run("query-object", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := wal.QueryObject(object, nil); len(got) != 2 {
				b.Fatal("wrong result count")
			}
		}
	})
	b.Run("monitor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mon, err := wal.Monitor(drbac.Query{Subject: subject, Object: object}, nil)
			if err != nil {
				b.Fatal(err)
			}
			mon.Close()
		}
	})
}

// BenchmarkFigure2DistributedProof measures the end-to-end §5 flow: three
// wallets, discovery across them, proof assembly, attribute aggregation.
func BenchmarkFigure2DistributedProof(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunCaseStudy()
		if err != nil {
			b.Fatal(err)
		}
		if res.BW != 100 || res.Storage != 30 || res.Hours != 18 {
			b.Fatal("wrong case-study outcome")
		}
	}
}

// BenchmarkSearchDirectionality sweeps EXP-S1: search effort by direction
// on the adversarial out-tree (b=3).
func BenchmarkSearchDirectionality(b *testing.B) {
	for _, depth := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("b3/d%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := sim.RunDirectionality(3, depth)
				if err != nil {
					b.Fatal(err)
				}
				out := points[0]
				b.ReportMetric(float64(out.Forward.EdgesExplored), "fwd-edges")
				b.ReportMetric(float64(out.Reverse.EdgesExplored), "rev-edges")
				b.ReportMetric(float64(out.Bidi.EdgesExplored), "bidi-edges")
			}
		})
	}
}

// BenchmarkAttributePruning sweeps EXP-S2: pruned vs unpruned search effort.
func BenchmarkAttributePruning(b *testing.B) {
	for _, width := range []int{10, 20} {
		b.Run(fmt.Sprintf("w%d/d8", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := sim.RunPruning(width, 8)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(pt.PrunedEdges), "pruned-edges")
				b.ReportMetric(float64(pt.UnprunedEdges), "unpruned-edges")
			}
		})
	}
}

// BenchmarkRevocationSchemes runs EXP-S3 per scheme over a long session.
func BenchmarkRevocationSchemes(b *testing.B) {
	params := sim.RevocationParams{
		Clients: 4, Credentials: 8, Steps: 500, PollEvery: 5, CRLEvery: 10,
		RevokeAt: []int{103},
	}
	for _, scheme := range []sim.RevocationScheme{sim.OCSP, sim.CRL, sim.Subscription} {
		b.Run(string(scheme), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunRevocationScheme(scheme, params)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Messages), "messages")
				b.ReportMetric(float64(res.Bytes), "bytes")
			}
		})
	}
}

// BenchmarkHierarchicalCache runs EXP-S5: home-wallet traffic flat vs
// behind a caching proxy.
func BenchmarkHierarchicalCache(b *testing.B) {
	for _, clients := range []int{4, 16} {
		b.Run(fmt.Sprintf("clients%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := sim.RunProxyExperiment(clients)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(pt.FlatHomeMessages), "flat-msgs")
				b.ReportMetric(float64(pt.HierHomeMessages), "hier-msgs")
			}
		})
	}
}

// BenchmarkSeparability runs EXP-S4 per idiom.
func BenchmarkSeparability(b *testing.B) {
	s := sim.Separability{Partners: 4, Privileges: 4, MembersPerPartner: 2}
	b.Run("drbac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := sim.SeparabilityDRBAC(s)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(out.RolesCreated), "roles")
		}
	})
	b.Run("phantom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := sim.SeparabilityPhantomRole(s)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(out.RolesCreated), "roles")
		}
	})
}

// BenchmarkProofValidateColdWarm measures EXP-S8: full validation of the
// Table 3 proof (five Ed25519 signatures: three primary steps plus Sheila's
// two-step support chain) under the verified-signature memo.
//
//	serial  — no memo; every signature verifies inline, the pre-memo cost.
//	cold    — a fresh memo per iteration: the parallel prime pass verifies
//	          all five signatures across the worker pool, so this bounds
//	          the first-ever validation of a proof.
//	warm    — one memo primed once: every signature check is a sharded
//	          hash lookup. The steady-state cost of re-validating proofs,
//	          which is what wallets do on every query and monitor firing.
func BenchmarkProofValidateColdWarm(b *testing.B) {
	w := newBenchWorld(b)
	d1 := w.issue(b, "[Maria -> BigISP.member] BigISP")
	d3 := w.issue(b, "[Sheila -> AirNet.mktg] AirNet")
	d4 := w.issue(b, "[AirNet.mktg -> AirNet.member'] AirNet")
	sup, err := drbac.NewProof(drbac.ProofStep{Delegation: d3}, drbac.ProofStep{Delegation: d4})
	if err != nil {
		b.Fatal(err)
	}
	d2 := w.issue(b, "[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20] Sheila")
	d5 := w.issue(b, "[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet")
	proof, err := drbac.NewProof(
		drbac.ProofStep{Delegation: d1},
		drbac.ProofStep{Delegation: d2, Support: []*drbac.Proof{sup}},
		drbac.ProofStep{Delegation: d5},
	)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := proof.Validate(drbac.ValidateOptions{At: w.now}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := drbac.ValidateOptions{At: w.now, SigVerifier: drbac.NewSigCache(0)}
			if err := proof.Validate(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		opts := drbac.ValidateOptions{At: w.now, SigVerifier: drbac.NewSigCache(0)}
		if err := proof.Validate(opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := proof.Validate(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchIssueMany mints n distinct delegations [User -> Org.r<i>] Org from a
// fixed seed pair, for store benchmarks that need bulk resident state.
func benchIssueMany(b *testing.B, n int) []*core.Delegation {
	b.Helper()
	orgSeed, userSeed := make([]byte, 32), make([]byte, 32)
	orgSeed[0], userSeed[0] = 1, 2
	org, err := core.IdentityFromSeed("Org", orgSeed)
	if err != nil {
		b.Fatal(err)
	}
	user, err := core.IdentityFromSeed("User", userSeed)
	if err != nil {
		b.Fatal(err)
	}
	dir := core.NewDirectory(org.Entity(), user.Entity())
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	ds := make([]*core.Delegation, n)
	for i := range ds {
		parsed, err := core.ParseDelegation(fmt.Sprintf("[User -> Org.r%d] Org", i), dir)
		if err != nil {
			b.Fatal(err)
		}
		ds[i], err = core.Issue(org, parsed.Template, now)
		if err != nil {
			b.Fatal(err)
		}
	}
	return ds
}

// BenchmarkStoreWriteAmplification measures bytes written to disk per
// published delegation with 10k bundles already resident: the log store
// appends one frame whatever the resident state (EXP-R2, which also records
// the whole-file JSON store this row was measured against before that store
// was deleted). Each iteration re-puts one of a small pool of extra
// delegations, so the resident set stays flat across b.N. Reported as
// bytes/op alongside ns/op (which is fsync-bound).
func BenchmarkStoreWriteAmplification(b *testing.B) {
	const resident = 10_000
	const pool = 64
	all := benchIssueMany(b, resident+pool)
	residentDs, fresh := all[:resident], all[resident:]

	b.Run("log-10k", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "state")
		st, err := logstore.Open(dir, logstore.Options{CompactInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		// Seed concurrently so group commit amortizes the per-batch fsync;
		// resident puts have distinct IDs, so order is irrelevant.
		const workers = 16
		var seq atomic.Uint64
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		chunk := (len(residentDs) + workers - 1) / workers
		for lo := 0; lo < len(residentDs); lo += chunk {
			ds := residentDs[lo:min(lo+chunk, len(residentDs))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, d := range ds {
					if err := st.PutDelegation(seq.Add(1), d, nil); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errCh:
			b.Fatal(err)
		default:
		}
		segBytes := func() int64 {
			entries, err := os.ReadDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			var sum int64
			for _, e := range entries {
				fi, err := e.Info()
				if err != nil {
					b.Fatal(err)
				}
				sum += fi.Size()
			}
			return sum
		}
		start := segBytes()
		n := seq.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n++
			if err := st.PutDelegation(n, fresh[i%pool], nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// Appends are cumulative: directory growth is exactly the bytes
		// written by the measured puts (plus header frames on rolls).
		b.ReportMetric(float64(segBytes()-start)/float64(b.N), "bytes/op")
	})
}

// --- credential primitive micro-benchmarks --------------------------------

func BenchmarkIssueDelegation(b *testing.B) {
	w := newBenchWorld(b)
	parsed, err := drbac.ParseDelegation("[Maria -> BigISP.member] BigISP", w.dir)
	if err != nil {
		b.Fatal(err)
	}
	issuer := w.ids["BigISP"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drbac.Issue(issuer, parsed.Template, w.now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDelegation(b *testing.B) {
	w := newBenchWorld(b)
	d := w.issue(b, "[Maria -> BigISP.member] BigISP")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDelegation(b *testing.B) {
	w := newBenchWorld(b)
	const text = "[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20] Sheila"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drbac.ParseDelegation(text, w.dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderDelegation(b *testing.B) {
	w := newBenchWorld(b)
	d := w.issue(b, "[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20] Sheila")
	pr := drbac.Printer{Dir: w.dir}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := pr.Delegation(d); out == "" {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkObservabilityTraced measures EXP-S7b: the serial hot-cache query
// cost as the observability stack deepens. bare is the uninstrumented
// wallet (EXP-S7's baseline); metrics adds the registry (counters + latency
// histogram per query); traced adds the retained-trace collector and the
// query SLO (per query: one atomic slow-threshold load, one SLO window
// observe); traced-span additionally runs every query under a root span
// retained by the collector, pricing the full span lifecycle — start, end,
// rollup, ring insert — that a discovery pays per hop.
func BenchmarkObservabilityTraced(b *testing.B) {
	w := newBenchWorld(b)
	dAB := w.issue(b, "[Maria -> BigISP.b] BigISP")
	dBC := w.issue(b, "[BigISP.b -> AirNet.c] AirNet")
	q := drbac.Query{
		Subject: drbac.SubjectEntity(w.ids["Maria"].ID()),
		Object:  drbac.NewRole(w.ids["AirNet"].ID(), "c"),
	}
	build := func(b *testing.B, o *drbac.Obs) *drbac.Wallet {
		b.Helper()
		wal := drbac.NewWallet(drbac.WalletConfig{Directory: w.dir, Obs: o})
		if err := wal.Publish(dAB); err != nil {
			b.Fatal(err)
		}
		if err := wal.Publish(dBC); err != nil {
			b.Fatal(err)
		}
		if _, err := wal.QueryDirect(q); err != nil {
			b.Fatal(err)
		}
		return wal
	}
	traced := func() *drbac.Obs {
		o := drbac.NewObs(nil, drbac.NewMetricsRegistry())
		o.SetCollector(drbac.NewTraceCollector(o.Registry(), drbac.TraceCollectorConfig{SampleRate: 1}))
		o.RegisterSLO(drbac.NewLatencySLO(o.Registry(), "query", 5*time.Millisecond, 0, 0))
		return o
	}
	for _, bench := range []struct {
		name string
		obs  func() *drbac.Obs
		span bool
	}{
		{"bare", func() *drbac.Obs { return nil }, false},
		{"metrics", func() *drbac.Obs { return drbac.NewObs(nil, drbac.NewMetricsRegistry()) }, false},
		{"traced", traced, false},
		{"traced-span", traced, true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			o := bench.obs()
			wal := build(b, o)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bench.span {
					sp := o.StartSpan(drbac.NewTraceID(), "bench.query")
					if _, err := wal.QueryDirect(q); err != nil {
						b.Fatal(err)
					}
					sp.End()
					continue
				}
				if _, err := wal.QueryDirect(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWalletParallelQuery measures multi-core direct-query throughput
// over the same two-delegation wallet as BenchmarkFigure1WalletOps, so
// ns/op compares directly against the serial query-direct number. hot-cache
// serves memoized answers (§6 coherent caching); cold-cache disables
// memoization so every query re-runs the sharded graph search; the serial
// variants pin the single-goroutine cost of each mode.
func BenchmarkWalletParallelQuery(b *testing.B) {
	w := newBenchWorld(b)
	dAB := w.issue(b, "[Maria -> BigISP.b] BigISP")
	dBC := w.issue(b, "[BigISP.b -> AirNet.c] AirNet")
	q := drbac.Query{
		Subject: drbac.SubjectEntity(w.ids["Maria"].ID()),
		Object:  drbac.NewRole(w.ids["AirNet"].ID(), "c"),
	}
	build := func(b *testing.B, disableCache bool) *drbac.Wallet {
		b.Helper()
		wal := drbac.NewWallet(drbac.WalletConfig{Directory: w.dir, DisableProofCache: disableCache})
		if err := wal.Publish(dAB); err != nil {
			b.Fatal(err)
		}
		if err := wal.Publish(dBC); err != nil {
			b.Fatal(err)
		}
		if _, err := wal.QueryDirect(q); err != nil { // warm (primes the cache when on)
			b.Fatal(err)
		}
		return wal
	}
	for _, bench := range []struct {
		name         string
		disableCache bool
		parallel     bool
	}{
		{"hot-cache", false, true},
		{"cold-cache", true, true},
		{"hot-cache-serial", false, false},
		{"cold-cache-serial", true, false},
	} {
		b.Run(bench.name, func(b *testing.B) {
			wal := build(b, bench.disableCache)
			b.ResetTimer()
			if bench.parallel {
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := wal.QueryDirect(q); err != nil {
							b.Fatal(err)
						}
					}
				})
				return
			}
			for i := 0; i < b.N; i++ {
				if _, err := wal.QueryDirect(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wireBench serves one wallet holding the Figure 1 two-delegation chain and
// dials it once per codec, for the EXP-W1 remote-path benchmarks.
type wireBench struct {
	w       *benchWorld
	client  *remote.Client
	subject core.Subject
	object  core.Role
	fresh   []*core.Delegation
}

func newWireBench(b *testing.B, codec string) *wireBench {
	b.Helper()
	pol, err := transport.ParseWireMode(codec)
	if err != nil {
		b.Fatal(err)
	}
	w := newBenchWorld(b)
	clk := clock.NewFake(w.now)
	net := transport.NewMemNetwork()
	owner := w.ids["BigISP"]
	wal := wallet.New(wallet.Config{Owner: owner, Clock: clk, Directory: w.dir})
	ln, err := net.ListenCodec("wallet.bigisp", owner, pol)
	if err != nil {
		b.Fatal(err)
	}
	srv := remote.Serve(wal, ln)
	b.Cleanup(srv.Close)
	wb := &wireBench{w: w}
	for _, text := range []string{"[Maria -> BigISP.b] BigISP", "[BigISP.b -> AirNet.c] AirNet"} {
		if err := wal.Publish(w.issue(b, text)); err != nil {
			b.Fatal(err)
		}
	}
	wb.subject = core.SubjectEntity(w.ids["Maria"].ID())
	wb.object = core.NewRole(w.ids["AirNet"].ID(), "c")
	c, err := remote.Dial(context.Background(), net.DialerCodec(w.ids["Maria"], pol), "wallet.bigisp")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	if got := c.WireCodec(); got != codec {
		b.Fatalf("negotiated %q, want %q", got, codec)
	}
	wb.client = c
	return wb
}

// mint prepares n distinct publishable delegations ahead of the timer.
func (wb *wireBench) mint(b *testing.B, n int) {
	b.Helper()
	wb.fresh = make([]*core.Delegation, n)
	for i := range wb.fresh {
		wb.fresh[i] = wb.w.issue(b, fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))
	}
}

// BenchmarkQueryDirect prices the full remote query round trip — encode
// request, transport framing, server decode, wallet lookup, proof encode,
// client decode — under each wire codec (EXP-W1). The wallet's hot proof
// cache keeps the graph-search cost constant, so the codec is the variable.
func BenchmarkQueryDirect(b *testing.B) {
	for _, codec := range []string{transport.CodecJSON, transport.CodecBinary} {
		b.Run(codec, func(b *testing.B) {
			wb := newWireBench(b, codec)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wb.client.QueryDirect(ctx, wb.subject, wb.object, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryDirectTCP is BenchmarkQueryDirect/binary with a real socket
// and a real daemon's bookkeeping in the path (EXP-H1): the wallet is served
// on loopback TCP under the observability bundle drbacd builds by default
// (registry, trace collector, query SLO, info-level audit log formatted and
// discarded), and every parallel worker drives its own connection, so the
// row prices TCP framing, the audit line and cross-connection contention on
// the proof cache and the buffer pool — none of which the mem-transport row
// sees. Its allocs/op is the hot path's floor under the 5% gate.
func BenchmarkQueryDirectTCP(b *testing.B) {
	w := newBenchWorld(b)
	reg := drbac.NewMetricsRegistry()
	o := drbac.NewObs(drbac.NewObsLogger(io.Discard, slog.LevelInfo, false), reg)
	o.SetCollector(drbac.NewTraceCollector(reg, drbac.TraceCollectorConfig{
		Capacity: 256, SlowThreshold: 250 * time.Millisecond, SampleRate: 1.0,
	}))
	o.RegisterSLO(drbac.NewLatencySLO(reg, "query", 5*time.Millisecond, 0, 0))
	owner := w.ids["BigISP"]
	wal := drbac.NewWallet(drbac.WalletConfig{Owner: owner, Directory: w.dir, Obs: o})
	for _, text := range []string{"[Maria -> BigISP.b] BigISP", "[BigISP.b -> AirNet.c] AirNet"} {
		if err := wal.Publish(w.issue(b, text)); err != nil {
			b.Fatal(err)
		}
	}
	ln, err := drbac.ListenTCP("127.0.0.1:0", owner)
	if err != nil {
		b.Fatal(err)
	}
	srv := drbac.ServeWallet(wal, ln)
	b.Cleanup(srv.Close)
	subject := drbac.SubjectEntity(w.ids["Maria"].ID())
	object := drbac.NewRole(w.ids["AirNet"].ID(), "c")
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := drbac.DialWallet(ctx, &drbac.TCPDialer{Identity: w.ids["Maria"]}, srv.Addr())
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		if got := c.WireCodec(); got != transport.CodecBinary {
			b.Errorf("negotiated %q, want binary", got)
			return
		}
		for pb.Next() {
			if _, err := c.QueryDirect(ctx, subject, object, nil, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPublish prices the remote publish round trip per codec (EXP-W1):
// each iteration ships one signed delegation and waits for the ack. It
// cycles a pre-published pool so the wallet's verified-signature memo (§PR5,
// EXP-S8 warm) absorbs the ed25519 verify — steady-state republish, where
// the wire codec rather than the 56µs signature check is the variable.
// First-publish cost (memo cold) is BenchmarkVerifyDelegation's job.
func BenchmarkPublish(b *testing.B) {
	const pool = 64
	for _, codec := range []string{transport.CodecJSON, transport.CodecBinary} {
		b.Run(codec, func(b *testing.B) {
			wb := newWireBench(b, codec)
			wb.mint(b, pool)
			ctx := context.Background()
			for _, d := range wb.fresh { // prime wallet + signature memo
				if err := wb.client.Publish(ctx, d, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := wb.client.Publish(ctx, wb.fresh[i%pool], nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shardedBench is an N-shard wallet cluster on an in-memory network for
// the §12 benchmarks: one served shard wallet per map entry behind a
// routing gateway.
type shardedBench struct {
	b   *testing.B
	dir *core.MemDirectory
	clk *clock.Fake
	net *transport.MemNetwork
	ids map[string]*core.Identity
	m   *cluster.Map
	gw  *cluster.Wallet
}

func newShardedBench(b *testing.B, shards int) *shardedBench {
	b.Helper()
	sc := &shardedBench{
		b:   b,
		dir: core.NewDirectory(),
		clk: clock.NewFake(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)),
		net: transport.NewMemNetwork(),
		ids: make(map[string]*core.Identity),
	}
	groups := make([][]string, shards)
	for i := range groups {
		groups[i] = []string{fmt.Sprintf("shard%d", i)}
	}
	m, err := cluster.Uniform(groups)
	if err != nil {
		b.Fatal(err)
	}
	sc.m = m
	for _, s := range m.Shards {
		owner := sc.ident(fmt.Sprintf("shard%d-owner", s.ID))
		w := wallet.New(wallet.Config{Owner: owner, Clock: sc.clk, Directory: sc.dir})
		node, err := cluster.NewNode(s.ID, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		ln, err := sc.net.Listen(s.Addrs[0], owner)
		if err != nil {
			b.Fatal(err)
		}
		srv := remote.ServeOptions(w, ln, remote.Options{Cluster: node})
		b.Cleanup(srv.Close)
	}
	sc.gw = sc.newGateway()
	return sc
}

// newGateway builds an extra gateway over the cluster (cold assembly
// cache); the caller owns its Close.
func (sc *shardedBench) newGateway() *cluster.Wallet {
	sc.b.Helper()
	gate := sc.ident("gate")
	gw, err := cluster.NewWallet(cluster.WalletConfig{
		RouterConfig: cluster.RouterConfig{Map: sc.m, Dialer: sc.net.Dialer(gate)},
		Identity:     gate,
		Clock:        sc.clk,
	})
	if err != nil {
		sc.b.Fatal(err)
	}
	sc.b.Cleanup(gw.Close)
	return gw
}

func (sc *shardedBench) ident(name string) *core.Identity {
	if id, ok := sc.ids[name]; ok {
		return id
	}
	seed := sha256.Sum256([]byte("drbac-bench:" + name))
	id, err := core.IdentityFromSeed(name, seed[:])
	if err != nil {
		sc.b.Fatal(err)
	}
	sc.ids[name] = id
	sc.dir.Add(id.Entity())
	return id
}

func (sc *shardedBench) deleg(text string) *core.Delegation {
	sc.b.Helper()
	parsed, err := core.ParseDelegation(text, sc.dir)
	if err != nil {
		sc.b.Fatal(err)
	}
	var issuer *core.Identity
	for _, id := range sc.ids {
		if id.ID() == parsed.Issuer.ID() {
			issuer = id
		}
	}
	if issuer == nil {
		sc.b.Fatalf("no identity for issuer of %q", text)
	}
	d, err := core.Issue(issuer, parsed.Template, sc.clk.Now())
	if err != nil {
		sc.b.Fatal(err)
	}
	return d
}

// BenchmarkShardedPublish measures the routed publish path (§12): hash
// the subject, pick the owning shard, one wire round trip, admission at
// the shard. The shard count varies only the routing fan-out, so the
// per-op numbers should be near-flat; aggregate scaling under a durable
// commit is EXP-C1's job (coalition-sim -exp cluster).
func BenchmarkShardedPublish(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sc := newShardedBench(b, shards)
			sc.ident("Org")
			delegs := make([]*core.Delegation, b.N)
			for i := range delegs {
				user := fmt.Sprintf("user%d", i)
				sc.ident(user)
				delegs[i] = sc.deleg(fmt.Sprintf("[%s -> Org.member] Org", user))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sc.gw.Publish(delegs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossShardProof measures end-to-end proof assembly for a
// three-link chain spanning shards: cold pays the scatter/fetch rounds,
// warm answers from the gateway's TTL-coherent assembly cache.
func BenchmarkCrossShardProof(b *testing.B) {
	sc := newShardedBench(b, 4)
	for _, name := range []string{"A", "B", "C", "Maria"} {
		sc.ident(name)
	}
	for _, text := range []string{
		"[Maria -> A.member] A",
		"[A.member -> B.guest] B",
		"[B.guest -> C.vip] C",
	} {
		if err := sc.gw.Publish(sc.deleg(text)); err != nil {
			b.Fatal(err)
		}
	}
	subject, err := core.ParseSubject("Maria", sc.dir)
	if err != nil {
		b.Fatal(err)
	}
	object, err := core.ParseRole("C.vip", sc.dir)
	if err != nil {
		b.Fatal(err)
	}
	q := wallet.Query{Subject: subject, Object: object}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gw := sc.newGateway()
			b.StartTimer()
			if _, err := gw.QueryDirect(q); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			gw.Close()
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := sc.gw.QueryDirect(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.gw.QueryDirect(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// dhtBenchNode is one DHT participant for BenchmarkDHTResolve: a served
// wallet answering dht-* plus the node and pool behind it.
type dhtBenchNode struct {
	node  *dht.Node
	peers *peer.Manager
	owner *core.Identity
	addr  string
}

func newDHTBenchNode(b *testing.B, net *transport.MemNetwork, clk *clock.Fake, name, addr string, serve bool) *dhtBenchNode {
	b.Helper()
	seed := sha256.Sum256([]byte("drbac-bench-dht:" + name))
	owner, err := core.IdentityFromSeed(name, seed[:])
	if err != nil {
		b.Fatal(err)
	}
	peers := peer.NewManager(peer.Config{
		Dialer:      net.Dialer(owner),
		Clock:       clk,
		CallTimeout: 5 * time.Second,
	})
	node, err := dht.NewNode(dht.Config{Identity: owner, Addr: addr, Peers: peers, Clock: clk, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	if serve {
		ln, err := net.Listen(addr, owner)
		if err != nil {
			b.Fatal(err)
		}
		w := wallet.New(wallet.Config{Owner: owner, Clock: clk})
		srv := remote.ServeOptions(w, ln, remote.Options{DHT: node})
		b.Cleanup(srv.Close)
	}
	b.Cleanup(peers.Close)
	return &dhtBenchNode{node: node, peers: peers, owner: owner, addr: addr}
}

// BenchmarkDHTResolve prices entity→wallet resolution through the DHT
// (§13) against the static address book it replaces. static is the
// baseline map lookup; dht/cached hits the client's verified-record
// cache (the steady-state path between TTL expiries); dht/miss resolves
// a never-before-seen entity — a full iterative find-value across the
// coalition with warm routing buckets.
func BenchmarkDHTResolve(b *testing.B) {
	ctx := context.Background()
	clk := clock.NewFake(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	net := transport.NewMemNetwork()
	coalition := make([]*dhtBenchNode, 4)
	for i := range coalition {
		coalition[i] = newDHTBenchNode(b, net, clk, fmt.Sprintf("member%d", i), fmt.Sprintf("wallet.m%d", i), true)
	}
	seedAddr := coalition[0].addr
	for _, m := range coalition[1:] {
		if err := m.node.Bootstrap(ctx, []string{seedAddr}); err != nil {
			b.Fatal(err)
		}
	}
	home := coalition[1]
	if err := home.node.Announce(ctx, home.owner, []string{home.addr}); err != nil {
		b.Fatal(err)
	}
	client := newDHTBenchNode(b, net, clk, "client", "wallet.client.unreachable", false)
	if err := client.node.Bootstrap(ctx, []string{seedAddr}); err != nil {
		b.Fatal(err)
	}

	b.Run("static", func(b *testing.B) {
		book := map[core.EntityID][]string{home.owner.ID(): {home.addr}}
		for i := 0; i < b.N; i++ {
			addrs, ok := book[home.owner.ID()]
			if !ok || len(addrs) == 0 {
				b.Fatal("static book miss")
			}
		}
	})

	b.Run("dht/cached", func(b *testing.B) {
		if _, err := client.node.Home(ctx, core.SubjectEntity(home.owner.ID())); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.node.Home(ctx, core.SubjectEntity(home.owner.ID())); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("dht/miss", func(b *testing.B) {
		ents := make([]core.EntityID, b.N)
		for i := range ents {
			name := fmt.Sprintf("bench-user-%d", i)
			seed := sha256.Sum256([]byte("drbac-bench-dht:" + name))
			id, err := core.IdentityFromSeed(name, seed[:])
			if err != nil {
				b.Fatal(err)
			}
			if err := home.node.Announce(ctx, id, []string{home.addr}); err != nil {
				b.Fatal(err)
			}
			ents[i] = id.ID()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.node.Home(ctx, core.SubjectEntity(ents[i])); err != nil {
				b.Fatal(err)
			}
		}
	})
}
