// Command bench is the repository's end-to-end load benchmark: wallets
// assembled from the root drbac package exactly as cmd/drbacd assembles one,
// served on loopback TCP listeners and driven by closed-loop clients in the
// same process. See README.md for the workloads, the metrics and what each
// is expected to move; BENCHMARK.json at the repository root is the
// contract later changes are judged by.
//
//	bash bench/run.sh -workload <name|all> -seed N [-seconds S] [-trace 0|1]
//	bash bench/run.sh -workload all -repeat 2 [-emit-benchdiff FILE]
//
// bench is a module of its own (go.mod beside this file, the parent
// directory's module replaced in), so the repository's `go build ./...` and
// `go test ./...` leave it alone; run.sh builds and runs it from the
// repository root.
//
// A run prints a report and, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones, measured with nothing instrumented and
// read against the yardstick (yardstick.go); with -trace 1 they are the per-layer ones, from a one-client run with the seam
// wrappers installed plus the in-process probes.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// The metric sets, in report order. They must match BENCHMARK.json; the
// package test checks that they do.
var (
	endToEndMetrics = []metricDef{
		{"ops_s", "1/s"},
		{"p50_us", "us"},
		{"p90_us", "us"},
		{"cpu_us_per_op", "us"},
		{"rss_mb", "MB"},
		{"setup_s", "s"},
	}
	perLayerMetrics = []metricDef{
		{"remote.client_send_us", "us"},
		{"remote.client_recv_us", "us"},
		{"transport.c2s_us", "us"},
		{"transport.s2c_us", "us"},
		{"transport.bytes_per_op", "B"},
		{"transport.frames_per_op", "count"},
		{"remote.server_dispatch_us", "us"},
		{"remote.server_reply_us", "us"},
		{"wallet.service_us", "us"},
		{"store.commit_us", "us"},
		{"subs.push_us", "us"},
		{"subs.revoke_notify_us", "us"},
		{"discovery.self_us", "us"},
		{"discovery.rounds_per_op", "count"},
		{"discovery.remote_queries_per_op", "count"},
		{"discovery.wallets_per_op", "count"},
		{"discovery.fetched_per_op", "count"},
		{"peer.dials_per_op", "count"},
		{"wallet.proofcache_hit_ratio", "ratio"},
		{"wallet.proofcache_invalidations_per_publish", "count"},
		{"sigcache.hit_ratio", "ratio"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace.overhead_pct", "%"},
		{"wire.encode_query_ns", "ns"},
		{"wire.decode_query_ns", "ns"},
		{"wire.encode_proof_ns", "ns"},
		{"wire.decode_proof_ns", "ns"},
		{"wire.encode_publish_ns", "ns"},
		{"wire.decode_publish_ns", "ns"},
		{"wire.decode_notify_ns", "ns"},
		{"wire.allocs_per_roundtrip", "count"},
		{"wallet.query_hot_us", "us"},
		{"wallet.query_cold_us", "us"},
		{"wallet.publish_memstore_us", "us"},
		{"graph.find_direct_us", "us"},
		{"graph.nodes_per_query", "count"},
		{"graph.edges_per_query", "count"},
		{"graph.add_us", "us"},
		{"core.validate_cold_us", "us"},
		{"core.validate_warm_us", "us"},
		{"core.verify_sig_us", "us"},
		{"core.issue_us", "us"},
		{"logstore.append_us", "us"},
		{"logstore.bytes_per_put", "B"},
		{"logstore.fsyncs_per_put", "count"},
		{"logstore.compactions", "count"},
		{"obs.query_overhead_ns", "ns"},
	}
)

// traceSteps is the fixed length of the traced run, in steps of the first
// client: long enough for stable means, short enough to stay in memory.
var traceSteps = map[string]int{"authz-hot": 20000, "authz-cold": 8000, "publish": 2000, "revoke": 2000, "discover": 1500}

// rssAtCalls is where rss_mb is read: the resident set once the clients have
// completed this many calls, warm-up included — about a third of the way
// through the window on the sandbox. remote.Client.call leaves a 30 s timer
// behind every request, so resident memory climbs with the number of requests
// served; read at a fixed time it would follow the machine's speed, and a
// change that serves more requests a second would read as using more memory.
var rssAtCalls = map[string]int64{"authz-hot": 200000, "authz-cold": 60000, "publish": 100000, "revoke": 100000, "discover": 25000}

// config is one run. Workload, seed, window, mode and scratch directory come
// from the command line; the rest is what defaults fixes, and only tests
// run anything else.
type config struct {
	params
	workload string
	seconds  float64
	trace    bool
	setups   int // times to set up; setup_s is the median, the run uses the last
	traceOps int // steps in the traced run; 0 means traceSteps[workload]
}

// defaults is the shape BENCHMARK.json's workloads are defined by: the
// full-size worlds, one closed-loop connection per processor on the authz
// workloads, three set-ups.
func defaults() config {
	return config{
		params: params{size: worldSize, chains: discoverChains, clients: runtime.NumCPU()},
		setups: 3,
	}
}

// result is one workload's outcome: the values of one metric set plus the
// correctness tally.
type result struct {
	workload  string
	defs      []metricDef
	values    map[string]float64
	attempted int64
	failed    int64
	unsafe    int64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for the generated world and the op order")
	seconds := fs.Float64("seconds", 18, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, nothing instrumented; 1: per-layer metrics from the traced run and the probes")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for trace files and scratch state")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and compare the first two against BENCHMARK.json's bounds")
	benchdiff := fs.String("emit-benchdiff", "", "also write the p50s to this file in cmd/benchdiff's JSON shape")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload != "all" && *repeat == 1 && *benchdiff == "" {
		cfg := defaults()
		cfg.seed, cfg.outDir = *seed, *outDir
		cfg.workload, cfg.seconds, cfg.trace = *workload, *seconds, *trace != 0
		return execute(cfg, stdout, stderr)
	}
	// Several runs: one child process each, so that none inherits another's
	// heap, pending timers or warmed memos — the conditions of a single run.
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	var forward []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workload", "repeat", "emit-benchdiff":
		default:
			forward = append(forward, "-"+f.Name+"="+f.Value.String())
		}
	})
	rounds, status, err := runChildren(names, *repeat, forward, stdout, stderr)
	if err == nil && *benchdiff != "" {
		err = writeBenchdiff(*benchdiff, names, rounds[0])
	}
	if err == nil && *repeat > 1 && *trace == 0 {
		var sp spec
		if sp, err = loadSpec("BENCHMARK.json"); err == nil && !compareRounds(stdout, sp, names, rounds[0], rounds[1]) {
			status = 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return status
}

// execute runs one workload in this process, prints its report and result
// line, and returns the exit status: 1 when the harness failed or a proof
// was served over a revoked delegation.
func execute(cfg config, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "drbac bench: %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed)
	run := runUntraced
	if cfg.trace {
		run = runTraced
	}
	res, err := run(cfg.workload, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printJSON(stdout, res)
	if res.unsafe > 0 {
		return 1
	}
	return 0
}

// runChildren runs every named workload `repeat` times, each in a child
// process of this same program, passing their reports through and keeping
// each one's metric values (the last line of its output).
func runChildren(names []string, repeat int, forward []string, stdout, stderr io.Writer) ([]map[string]map[string]float64, int, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	status := 0
	var rounds []map[string]map[string]float64
	for r := 0; r < repeat; r++ {
		round := make(map[string]map[string]float64)
		for _, name := range names {
			var buf bytes.Buffer
			cmd := exec.Command(self, append([]string{"-workload=" + name}, forward...)...)
			cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					return nil, 0, err
				}
				status = 1
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return nil, 0, fmt.Errorf("%s printed no result line", name)
			}
			round[name] = make(map[string]float64)
			for k, v := range line.Metrics {
				round[name][k] = v.Value
			}
		}
		rounds = append(rounds, round)
	}
	return rounds, status, nil
}

// ---- the untraced run: end-to-end metrics ----

func runUntraced(name string, cfg config, out io.Writer) (result, error) {
	var (
		in     *instance
		setupS []float64
	)
	for rep := 1; ; rep++ {
		start := time.Now()
		var err error
		if in, err = setup(name, cfg.params, nil); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if rep >= cfg.setups {
			break
		}
		in.close()
		in = nil // or the next set-up's peak would hold two worlds
		runtime.GC()
	}
	defer in.close()
	yard, err := newYardstick()
	if err != nil {
		return result{}, err
	}
	defer yard.close()
	// Start every run from the same heap: the world and nothing else. What
	// set-up left behind would otherwise decide the collector's first
	// targets, and with them the run's throughput and footprint.
	debug.FreeOSMemory()
	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := window / 10
	if warm > 3*time.Second {
		warm = 3 * time.Second
	}
	m, err := in.runTimed(yard, warm, window)
	if err != nil {
		return result{}, err
	}

	// Per-slice series, as measured. A timing or a rate is reported as the
	// median over the slices of its value read against the yardstick — a
	// time divided by the slice's stretch, a rate multiplied by it; set-up
	// time is the median as measured, memory is read at a fixed amount of
	// work.
	raw := map[string][]float64{"rss_mb": {rssAt(m.slices, rssAtCalls[name])}, "setup_s": setupS}
	scaled := map[string][]float64{"rss_mb": raw["rss_mb"], "setup_s": setupS}
	add := func(name string, v, scale float64) {
		raw[name] = append(raw[name], v)
		scaled[name] = append(scaled[name], v*scale)
	}
	var stretches []float64
	for s, sl := range m.slices {
		stretches = append(stretches, sl.stretch)
		add("ops_s", float64(sl.b.done-sl.a.done)/sl.b.at.Sub(sl.a.at).Seconds(), sl.stretch)
		if calls := sl.b.calls - sl.a.calls; calls > 0 {
			add("cpu_us_per_op", float64((sl.b.cpu-sl.a.cpu).Microseconds())/float64(calls), 1/sl.stretch)
		}
		if m.bySlice[s].n > 0 {
			add("p50_us", m.bySlice[s].quantile(0.50)/1e3, 1/sl.stretch)
			add("p90_us", m.bySlice[s].quantile(0.90)/1e3, 1/sl.stretch)
		}
	}
	res := result{workload: name, defs: endToEndMetrics, attempted: m.attempted, failed: m.failed, unsafe: m.unsafe,
		values: make(map[string]float64)}

	fmt.Fprintf(out, "\n== %s (untraced, %d client(s), %.1fs window in %d slices, world %s)\n",
		name, len(in.steps), cfg.seconds, slices, in.digest)
	for _, n := range in.notes {
		fmt.Fprintf(out, "   %s\n", n)
	}
	fmt.Fprintf(out, "   stretch: the machine ran %.3f times as slow as the quiet sandbox (median over the slices, which spread %.1f%%)\n",
		median(stretches), 100*spread(stretches))
	fmt.Fprintf(out, "   %-16s %12s %-5s %12s %s\n", "metric", "value", "unit", "as measured", "spread (IQR/median) of the value over the slices — for setup_s, the set-ups")
	for _, d := range endToEndMetrics {
		res.values[d.name] = median(scaled[d.name])
		fmt.Fprintf(out, "   %-16s %12.3f %-5s %12.3f %4.1f%%\n", d.name, res.values[d.name], d.unit, median(raw[d.name]), 100*spread(scaled[d.name]))
	}
	printTail(out, m.primary, &m.all)
	for _, k := range sortedKeys(m.aux) {
		printTail(out, k, m.aux[k])
	}
	printTally(out, m)
	return res, nil
}

// printTail prints one latency distribution's informational fields: sample
// count, median, and the highest percentile with ten samples beyond it.
func printTail(out io.Writer, kind string, h *hist) {
	if h.n == 0 {
		return
	}
	line := fmt.Sprintf("   %-14s n=%-9d", kind, h.n)
	for _, p := range tailPercentiles {
		if p <= h.highestResolvable() {
			line += fmt.Sprintf(" p%g=%.1fus", 100*p, h.quantile(p)/1e3)
		}
	}
	fmt.Fprintln(out, line)
}

func printTally(out io.Writer, m *measurement) {
	ratio := 0.0
	if m.attempted > 0 {
		ratio = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(out, "   checked=%d failed=%d failed_ratio=%g unsafe_proofs=%d\n", m.attempted, m.failed, ratio, m.unsafe)
	for _, e := range m.errs {
		fmt.Fprintf(out, "   ! %s\n", e)
	}
}

// ---- the traced run: per-layer metrics ----

func runTraced(name string, cfg config, out io.Writer) (result, error) {
	steps := cfg.traceOps
	if steps <= 0 {
		steps = traceSteps[name]
	}
	warm := steps / 4
	cfg.solo = true

	// First plain: same client, same step count, nothing wrapped. Its wall
	// time is the base of trace.overhead_pct, and its counter deltas are the
	// cache and allocation metrics.
	in, err := setup(name, cfg.params, nil)
	if err != nil {
		return result{}, err
	}
	plain := in.runCounted(warm, steps, nil)
	in.close()
	runtime.GC()

	rec := newRecorder()
	in, err = setup(name, cfg.params, rec)
	if err != nil {
		return result{}, err
	}
	traced := in.runCounted(warm, steps, rec)
	digest := in.digest
	in.close()

	spans := buildSpans(rec.events)
	tracePath := filepath.Join(cfg.outDir, "trace-"+name+".json")
	if err := writeTrace(tracePath, name, spans); err != nil {
		return result{}, err
	}
	probes, err := runProbes(cfg.params)
	if err != nil {
		return result{}, err
	}

	v := probes
	layer, nops := layerSelf(spans, traced.decompose)
	us := func(name string) float64 { return layer[name] / 1e3 }
	v["remote.client_send_us"] = us(spClientSend)
	v["remote.client_recv_us"] = us(spClientRecv)
	v["transport.c2s_us"] = us(spC2S)
	v["transport.s2c_us"] = us(spS2C)
	v["remote.server_dispatch_us"] = us(spDispatch) + us(spServer) // undivided server time is dispatch
	v["remote.server_reply_us"] = us(spReply)
	v["wallet.service_us"] = us(spService)
	v["store.commit_us"] = us(spStore)
	v["discovery.self_us"] = us("op")
	revoke, _ := layerSelf(spans, "revoke")
	v["subs.push_us"] = revoke[spPush] / 1e3
	v["subs.revoke_notify_us"] = 0
	if h := traced.latency("notify"); h != nil && h.n > 0 {
		v["subs.revoke_notify_us"] = h.quantile(0.5) / 1e3
	}
	calls := float64(traced.after.calls - traced.before.calls)
	done := float64(traced.after.done - traced.before.done)
	v["transport.bytes_per_op"] = float64(traced.after.bytes-traced.before.bytes) / calls
	v["transport.frames_per_op"] = float64(traced.after.frames-traced.before.frames) / calls
	v["peer.dials_per_op"] = float64(traced.after.dials-traced.before.dials) / calls
	v["discovery.rounds_per_op"] = float64(traced.disc.Rounds) / done
	v["discovery.remote_queries_per_op"] = float64(traced.disc.RemoteQueries) / done
	v["discovery.wallets_per_op"] = float64(traced.disc.WalletsContacted) / done
	v["discovery.fetched_per_op"] = float64(traced.disc.DelegationsFetched) / done

	pa, pb := plain.before, plain.after
	pcalls := float64(pb.calls - pa.calls)
	v["wallet.proofcache_hit_ratio"] = ratio(pb.cacheHits-pa.cacheHits, pb.cacheMiss-pa.cacheMiss)
	v["sigcache.hit_ratio"] = ratio(pb.sigHits-pa.sigHits, pb.sigMiss-pa.sigMiss)
	v["wallet.proofcache_invalidations_per_publish"] = 0
	if h := plain.latency("publish"); h != nil && h.n > 0 {
		v["wallet.proofcache_invalidations_per_publish"] = float64(pb.cacheInval-pa.cacheInval) / float64(h.n)
	}
	v["runtime.allocs_per_op"] = float64(pb.mem.Mallocs-pa.mem.Mallocs) / pcalls
	v["runtime.alloc_bytes_per_op"] = float64(pb.mem.TotalAlloc-pa.mem.TotalAlloc) / pcalls
	v["runtime.gc_cycles"] = float64(pb.mem.NumGC - pa.mem.NumGC)
	v["runtime.gc_pause_ms"] = float64(pb.mem.PauseTotalNs-pa.mem.PauseTotalNs) / 1e6
	plainWall, tracedWall := pb.at.Sub(pa.at).Seconds(), traced.after.at.Sub(traced.before.at).Seconds()
	v["trace.overhead_pct"] = 100 * (tracedWall - plainWall) / plainWall

	res := result{workload: name, defs: perLayerMetrics, values: v,
		attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed, unsafe: plain.unsafe + traced.unsafe}

	fmt.Fprintf(out, "\n== %s (traced: 1 client, %d steps, world %s; spans in %s)\n", name, steps, digest, tracePath)
	total := layer["op.total"]
	fmt.Fprintf(out, "   self time per %s over %d traced ops, mean %.1fus (plain run %.1fus/step, traced %.1fus/step)\n",
		traced.decompose, nops, total/1e3, 1e6*plainWall/float64(steps), 1e6*tracedWall/float64(steps))
	for _, k := range sortedKeys(layer) {
		if k == "op.total" || layer[k] == 0 {
			continue
		}
		fmt.Fprintf(out, "   %-26s %10.2fus %5.1f%%\n", k, layer[k]/1e3, 100*layer[k]/total)
	}
	fmt.Fprintf(out, "   %-44s %14s %s\n", "per-layer metric", "value", "unit")
	for _, d := range perLayerMetrics {
		fmt.Fprintf(out, "   %-44s %14.3f %s\n", d.name, v[d.name], d.unit)
	}
	traced.errs = append(plain.errs, traced.errs...)
	traced.attempted, traced.failed, traced.unsafe = res.attempted, res.failed, res.unsafe
	printTally(out, traced)
	return res, nil
}

// rssAt reads the resident set size off the slice boundaries at the moment
// `calls` calls had completed, between the two samples either side of it. A
// run that never gets that far reports its last sample.
func rssAt(slices []timedSlice, calls int64) float64 {
	var snaps []counters
	for _, sl := range slices {
		snaps = append(snaps, sl.a, sl.b)
	}
	for i, b := range snaps {
		if b.calls < calls {
			continue
		}
		if i == 0 {
			return b.rss
		}
		a := snaps[i-1]
		return a.rss + (b.rss-a.rss)*float64(calls-a.calls)/float64(b.calls-a.calls)
	}
	return snaps[len(snaps)-1].rss
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// ---- output ----

// printJSON writes the one-line machine-readable result.
func printJSON(out io.Writer, r result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.defs))
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = mv{Value: v, Unit: d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0 && r.unsafe == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	fmt.Fprintf(out, "%s\n", line)
}

// writeBenchdiff writes each workload's latency median in the
// {"benchmarks":[{name, ns_op, ...}]} shape cmd/benchdiff reads.
func writeBenchdiff(path string, names []string, round map[string]map[string]float64) error {
	type rec struct {
		Name     string  `json:"name"`
		NsOp     float64 `json:"ns_op"`
		BOp      int64   `json:"b_op"`
		AllocsOp int64   `json:"allocs_op"`
	}
	var recs []rec
	for _, name := range names {
		if v, ok := round[name]["p50_us"]; ok {
			recs = append(recs, rec{Name: "BenchLoad/" + name + "/p50", NsOp: v * 1e3})
		}
	}
	data, err := json.MarshalIndent(struct {
		Benchmarks []rec `json:"benchmarks"`
	}{recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spec is the part of BENCHMARK.json the repeat check needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("the repeat check needs the bounds: %w", err)
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// compareRounds prints, per workload and end-to-end metric, both rounds'
// values, their difference and the bound; it reports whether every
// difference stayed within its bound. Both rounds ran the same code, so
// neither is the reference: the difference is taken from the better value,
// whichever round it came from, and the check does not depend on run order.
func compareRounds(out io.Writer, sp spec, names []string, a, b map[string]map[string]float64) bool {
	ok := true
	fmt.Fprintf(out, "\n== repeat check: two runs of the same code\n")
	fmt.Fprintf(out, "   %-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ by", "bound")
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			x, y := a[name][m.Name], b[name][m.Name]
			better, worse := math.Min(x, y), math.Max(x, y)
			if m.Better == "higher" {
				better, worse = worse, better
			}
			diff := math.Abs(worse-better) / better
			verdict := ""
			if !(diff <= m.Bound) { // a NaN is a metric one round did not print
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(out, "   %-12s %-16s %14.3f %14.3f %8.1f%% %6.0f%%%s\n",
				name, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
