package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"drbac"
	"drbac/internal/bufpool"
	"drbac/internal/graph"
	"drbac/internal/logstore"
	"drbac/internal/wire"
)

// Probes time one layer at a time, in-process and off the network, over a
// small world generated from the same seed. They are the only part of the
// benchmark that reaches past the root package into internal/ (the pinned
// names are listed in README.md); the end-to-end path never does.

const (
	probeWorld  = 4000 // delegations, unless the run's own world is smaller
	probeSample = 256  // distinct inputs each probe cycles through
	probeBatch  = 5    // batches per probe; the median batch is reported
)

// perCall times fn over probeBatch batches of n calls and returns the
// median batch's nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	var batches []float64
	for b := 0; b < probeBatch; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		batches = append(batches, float64(time.Since(start))/float64(n))
	}
	return median(batches)
}

func runProbes(p params) (map[string]float64, error) {
	out := make(map[string]float64)
	size := probeWorld
	if p.size < size {
		size = p.size
	}
	w := buildAuthzWorld(p.seed, size)
	wallet := drbac.NewWallet(drbac.WalletConfig{Obs: drbacdObs(), SigCache: drbac.NewSigCache(0)})
	if err := publishAll(wallet, w.bundles); err != nil {
		return nil, err
	}
	var provable []pair
	for _, p := range w.pairs(8*probeSample, false) {
		if p.provable && len(provable) < probeSample {
			provable = append(provable, p)
		}
	}
	if len(provable) == 0 {
		return nil, fmt.Errorf("probe world has no provable pairs")
	}
	ask := func(p pair) drbac.Query {
		return drbac.Query{Subject: p.subject, Object: p.object, Constraints: p.constraints}
	}
	pick := func(i int) pair { return provable[i%len(provable)] }

	// wallet: a memoized answer, a searched-and-validated one (Query.Stats
	// bypasses the proof cache), and a publication into a MemStore.
	var proofs []*drbac.Proof
	for _, p := range provable {
		proof, err := wallet.QueryDirect(ask(p))
		if err != nil {
			return nil, fmt.Errorf("probe query: %w", err)
		}
		proofs = append(proofs, proof)
	}
	out["wallet.query_hot_us"] = perCall(4000, func(i int) { _, _ = wallet.QueryDirect(ask(pick(i))) }) / 1e3
	out["wallet.query_cold_us"] = perCall(1000, func(i int) {
		q := ask(pick(i))
		q.Stats = new(drbac.SearchStats)
		_, _ = wallet.QueryDirect(q)
	}) / 1e3
	bare := drbac.NewWallet(drbac.WalletConfig{SigCache: drbac.NewSigCache(0)})
	if err := publishAll(bare, w.bundles); err != nil {
		return nil, err
	}
	for _, p := range provable {
		_, _ = bare.QueryDirect(ask(p))
	}
	withObs := perCall(4000, func(i int) { _, _ = wallet.QueryDirect(ask(pick(i))) })
	without := perCall(4000, func(i int) { _, _ = bare.QueryDirect(ask(pick(i))) })
	out["obs.query_overhead_ns"] = withObs - without

	fresh := make([]*drbac.Delegation, probeBatch*200)
	for i := range fresh {
		fresh[i], _ = w.fresh(1<<20 + i)
	}
	n := 0
	out["wallet.publish_memstore_us"] = perCall(200, func(int) { _ = wallet.Publish(fresh[n]); n++ }) / 1e3

	// graph: the same delegations and questions through the index alone.
	g := graph.New()
	start := time.Now()
	for _, b := range w.bundles {
		g.Add(b.d, b.support)
	}
	out["graph.add_us"] = float64(time.Since(start)) / float64(len(w.bundles)) / 1e3
	var gs graph.Stats
	now := time.Now()
	searches := 0
	out["graph.find_direct_us"] = perCall(1000, func(i int) {
		p := pick(i)
		_, _ = g.FindDirect(p.subject, p.object, graph.Options{At: now, Constraints: p.constraints, Stats: &gs})
		searches++
	}) / 1e3
	out["graph.nodes_per_query"] = float64(gs.NodesVisited) / float64(searches)
	out["graph.edges_per_query"] = float64(gs.EdgesExplored) / float64(searches)

	// core: validation with a cold and a warm signature memo, one raw
	// signature check, one issuance.
	var coldNs time.Duration
	for i := 0; i < probeSample; i++ {
		opts := drbac.ValidateOptions{At: now, SigVerifier: drbac.NewSigCache(0)}
		t := time.Now()
		_ = proofs[i%len(proofs)].Validate(opts)
		coldNs += time.Since(t)
	}
	out["core.validate_cold_us"] = float64(coldNs) / probeSample / 1e3
	warm := drbac.ValidateOptions{At: now, SigVerifier: drbac.NewSigCache(0)}
	for _, p := range proofs {
		_ = p.Validate(warm)
	}
	out["core.validate_warm_us"] = perCall(2000, func(i int) { _ = proofs[i%len(proofs)].Validate(warm) }) / 1e3
	out["core.verify_sig_us"] = perCall(500, func(i int) { _ = w.bundles[i%len(w.bundles)].d.VerifyWith(nil) }) / 1e3
	tmpl := drbac.Template{Subject: drbac.SubjectEntity(w.g.user("probe", 0)), Object: w.services[0]}
	out["core.issue_us"] = perCall(500, func(int) { _, _ = drbac.Issue(w.issuer, tmpl, worldEpoch) }) / 1e3

	probeWire(out, w, provable, proofs)
	if err := probeLogstore(out, w, p.outDir); err != nil {
		return nil, err
	}
	return out, nil
}

// probeWire replays the workloads' message shapes through the binary codec
// — the one every benchmark connection negotiates (dial checks it).
func probeWire(out map[string]float64, w *authzWorld, provable []pair, proofs []*drbac.Proof) {
	codec := wire.CodecFor(wire.CodecBinary)
	type msg struct {
		t     wire.MsgType
		body  any
		frame []byte
	}
	build := func(t wire.MsgType, body any) msg {
		frame, err := codec.Encode(t, 1, body)
		if err != nil {
			panic(fmt.Sprintf("probe: encode %s: %v", t, err))
		}
		m := msg{t: t, body: body, frame: append([]byte(nil), frame...)}
		bufpool.Put(frame)
		return m
	}
	var queries, answers, publishes, notifies []msg
	for i, p := range provable {
		queries = append(queries, build(wire.TQueryDirect, wire.QueryReq{Subject: p.subject, Object: p.object, Constraints: p.constraints}))
		answers = append(answers, build(wire.TProof, wire.ProofResp{Proof: proofs[i]}))
		b := w.bundles[len(w.bundles)-1-i]
		publishes = append(publishes, build(wire.TPublish, wire.PublishReq{Delegation: b.d, Support: b.support}))
		notifies = append(notifies, build(wire.TNotify, wire.NotifyPush{Delegation: b.d.ID(), Kind: "revoked", At: worldEpoch, Seq: uint64(i)}))
	}
	encode := func(ms []msg) func(int) {
		return func(i int) {
			m := ms[i%len(ms)]
			frame, _ := codec.Encode(m.t, uint64(i), m.body)
			bufpool.Put(frame)
		}
	}
	decode := func(ms []msg, into func() any) func(int) {
		return func(i int) {
			env, err := codec.Decode(ms[i%len(ms)].frame)
			if err == nil {
				err = wire.DecodeBody(env, into())
			}
			if err != nil {
				panic(fmt.Sprintf("probe: decode: %v", err))
			}
		}
	}
	encQ, decQ := encode(queries), decode(queries, func() any { return new(wire.QueryReq) })
	encP, decP := encode(answers), decode(answers, func() any { return new(wire.ProofResp) })
	out["wire.encode_query_ns"] = perCall(5000, encQ)
	out["wire.decode_query_ns"] = perCall(5000, decQ)
	out["wire.encode_proof_ns"] = perCall(2000, encP)
	out["wire.decode_proof_ns"] = perCall(2000, decP)
	out["wire.encode_publish_ns"] = perCall(2000, encode(publishes))
	out["wire.decode_publish_ns"] = perCall(2000, decode(publishes, func() any { return new(wire.PublishReq) }))
	out["wire.decode_notify_ns"] = perCall(5000, decode(notifies, func() any { return new(wire.NotifyPush) }))

	const trips = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		encQ(i)
		decQ(i)
		encP(i)
		decP(i)
	}
	runtime.ReadMemStats(&after)
	out["wire.allocs_per_roundtrip"] = float64(after.Mallocs-before.Mallocs) / trips
}

// probeLogstore appends to a log store opened with its defaults (group
// commit, one fsync per batch) in a scratch directory under outDir.
func probeLogstore(out map[string]float64, w *authzWorld, outDir string) error {
	dir, err := os.MkdirTemp(outDir, "probe-logstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := drbac.NewMetricsRegistry()
	st, err := logstore.Open(dir, logstore.Options{Registry: reg})
	if err != nil {
		return err
	}
	const puts = 400
	seq := uint64(0)
	var perr error
	start := time.Now()
	for i := 0; i < puts; i++ {
		b := w.bundles[i%len(w.bundles)]
		seq++
		if err := st.PutDelegation(seq, b.d, b.support); err != nil && perr == nil {
			perr = err
		}
	}
	elapsed := time.Since(start)
	if err := st.Close(); err != nil && perr == nil {
		perr = err
	}
	if perr != nil {
		return fmt.Errorf("probe logstore: %w", perr)
	}
	var bytes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil && fi.Mode().IsRegular() {
			bytes += fi.Size()
		}
	}
	snap := reg.Snapshot()
	out["logstore.append_us"] = float64(elapsed) / puts / 1e3
	out["logstore.bytes_per_put"] = float64(bytes) / puts
	out["logstore.fsyncs_per_put"] = float64(snap.Counters["drbac_logstore_commit_batches_total"]) / puts
	out["logstore.compactions"] = float64(snap.Counters["drbac_logstore_compactions_total"])
	return nil
}
