package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"drbac"
)

// contract is BENCHMARK.json as the tests read it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

func TestContractNamesWhatTheProgramEmits(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: %s has no direction", kind, got[i].Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEndMetrics)
	check("per_layer", c.PerLayer, perLayerMetrics)
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v", c.Paths)
	}
}

func smoke(t *testing.T) config {
	return config{
		params:  params{seed: 5, size: 500, chains: 32, clients: 2, outDir: t.TempDir()},
		seconds: 0.3, setups: 1, traceOps: 200,
	}
}

// executeAll runs every workload in turn, as separate processes would.
func executeAll(t *testing.T, cfg config) string {
	t.Helper()
	var out bytes.Buffer
	for _, name := range workloadNames {
		cfg.workload = name
		if code := execute(cfg, &out, &out); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, out.String())
		}
	}
	return out.String()
}

// resultLines parses the result lines a run printed, one per workload.
func resultLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var res []map[string]any
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		res = append(res, m)
	}
	return res
}

// checkResults asserts that each workload printed exactly the contract's
// metrics, each once (JSON object keys), each finite, with nothing failed.
func checkResults(t *testing.T, out string, want []contractMetric, positive bool) {
	t.Helper()
	results := resultLines(t, out)
	if len(results) != len(workloadNames) {
		t.Fatalf("%d result lines for %d workloads:\n%s", len(results), len(workloadNames), out)
	}
	for i, r := range results {
		name := workloadNames[i]
		if len(r) != 4 {
			t.Errorf("%s: result has keys %v, want exactly correct, attempted, failed, metrics", name, r)
		}
		if r["correct"] != true || r["failed"].(float64) != 0 || r["attempted"].(float64) < 1 {
			t.Errorf("%s: correct=%v attempted=%v failed=%v\n%s", name, r["correct"], r["attempted"], r["failed"], out)
		}
		metrics := r["metrics"].(map[string]any)
		if len(metrics) != len(want) {
			t.Errorf("%s: %d metrics, contract names %d", name, len(metrics), len(want))
		}
		for _, m := range want {
			got, ok := metrics[m.Name].(map[string]any)
			if !ok {
				t.Errorf("%s: metric %s missing", name, m.Name)
				continue
			}
			v, _ := got["value"].(float64)
			if got["unit"] != m.Unit || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v %v, want a finite number of %s", name, m.Name, got["value"], got["unit"], m.Unit)
			}
			if positive && v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, v)
			}
		}
	}
	if strings.Contains(out, "unsafe_proofs=") && !strings.Contains(out, "unsafe_proofs=0") {
		t.Errorf("unsafe proofs reported:\n%s", out)
	}
}

func TestSmokeUntraced(t *testing.T) {
	checkResults(t, executeAll(t, smoke(t)), loadContract(t).EndToEnd, true)
}

func TestSmokeTraced(t *testing.T) {
	cfg := smoke(t)
	cfg.trace = true
	checkResults(t, executeAll(t, cfg), loadContract(t).PerLayer, false)
	for _, name := range workloadNames {
		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
			t.Errorf("trace file for %s: %d spans, err %v", name, len(tf.Spans), err)
		}
	}
}

// The same seed must give the same world on every run of every workload:
// the digest in the report header is what lets two runs be compared at all.
// (discover's listeners get other ports each time, and its tags carry them.)
func TestSameSeedSameDigest(t *testing.T) {
	worlds := func(cfg config) string {
		var ds []string
		for _, line := range strings.Split(executeAll(t, cfg), "\n") {
			if i := strings.Index(line, "world "); strings.HasPrefix(line, "== ") && i >= 0 {
				ds = append(ds, line[i+6:i+22])
			}
		}
		if len(ds) != len(workloadNames) {
			t.Fatalf("%d world digests for %d workloads", len(ds), len(workloadNames))
		}
		return strings.Join(ds, " ")
	}
	cfg := smoke(t)
	first, again := worlds(cfg), worlds(cfg)
	cfg.seed++
	if other := worlds(cfg); first != again || strings.Contains(other, first[:16]) || strings.Contains(other, first[len(first)-16:]) {
		t.Errorf("seed 5: %s\nseed 5: %s\nseed 6: %s", first, again, other)
	}
}

// staleService is a deliberately unsafe wallet front: once it has served a
// proof for a question, it keeps serving it after the wallet itself says
// there is none — that is, after a revocation.
type staleService struct {
	drbac.WalletService
	mu   sync.Mutex
	last map[[2]string]*drbac.Proof
}

func (s *staleService) QueryDirect(q drbac.Query) (*drbac.Proof, error) {
	p, err := s.WalletService.QueryDirect(q)
	key := [2]string{q.Subject.String(), q.Object.String()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.last[key] = p
	} else if old := s.last[key]; old != nil && errors.Is(err, drbac.ErrNoProof) {
		return old, nil
	}
	return p, err
}

func TestServingARevokedProofExitsNonZero(t *testing.T) {
	cfg := smoke(t)
	cfg.workload = "revoke"
	cfg.trace = true // the serialized mix: query, revoke, re-query on one connection
	cfg.traceOps = 8
	cfg.wrap = func(w drbac.WalletService) drbac.WalletService {
		return &staleService{WalletService: w, last: make(map[[2]string]*drbac.Proof)}
	}
	var out bytes.Buffer
	if code := execute(cfg, &out, io.Discard); code == 0 {
		t.Fatalf("a proof over a revoked delegation was served and the run still exited 0\n%s", out.String())
	}
	if !strings.Contains(out.String(), "UNSAFE") || strings.Contains(out.String(), "unsafe_proofs=0") {
		t.Errorf("report does not name the unsafe proof:\n%s", out.String())
	}
	res := resultLines(t, out.String())
	if len(res) != 1 || res[0]["correct"] != false {
		t.Errorf("result line should say correct=false: %v", res)
	}
}

func TestRepeatCheckIsSymmetric(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	round := func(ops float64) map[string]map[string]float64 {
		return map[string]map[string]float64{"authz-hot": {
			"ops_s": ops, "p50_us": 100, "p90_us": 200, "cpu_us_per_op": 50, "rss_mb": 100, "setup_s": 2,
		}}
	}
	check := func(a, b map[string]map[string]float64) bool {
		var out bytes.Buffer
		ok := compareRounds(&out, sp, []string{"authz-hot"}, a, b)
		if ok == strings.Contains(out.String(), "EXCEEDS") {
			t.Errorf("verdict %v does not match the table:\n%s", ok, out.String())
		}
		return ok
	}
	if !check(round(1000), round(1000)) || !check(round(1000), round(1020)) {
		t.Error("two like runs were flagged")
	}
	// 1000 and 1400 differ by 40% whichever came first.
	if check(round(1000), round(1400)) || check(round(1400), round(1000)) {
		t.Error("two runs 40% apart passed in one order or the other")
	}
	missing := round(1000)
	delete(missing["authz-hot"], "p90_us")
	if check(round(1000), missing) {
		t.Error("a metric one run did not print passed")
	}
}

// rss_mb is read where a fixed number of calls had completed, between the
// two samples either side of that moment.
func TestRSSAtFixedWork(t *testing.T) {
	at := func(calls int64, rss float64) counters { return counters{calls: calls, rss: rss} }
	run := []timedSlice{
		{a: at(100, 10), b: at(200, 20)},
		{a: at(200, 21), b: at(400, 41)}, // a yardstick gap between the slices: no calls, a little memory
	}
	for _, tc := range []struct {
		calls int64
		want  float64
	}{
		{50, 10},   // already past it when the window opened
		{150, 15},  // halfway through the first slice
		{200, 20},  // on a boundary
		{300, 31},  // halfway through the second
		{1000, 41}, // never got that far: the last sample
	} {
		if got := rssAt(run, tc.calls); got != tc.want {
			t.Errorf("rssAt(%d calls) = %g, want %g", tc.calls, got, tc.want)
		}
	}
}
