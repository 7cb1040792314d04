package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/wallet"
)

// writeMap writes m to path with a distinct mtime so the watcher's
// mtime-change detection always fires.
func writeMap(t *testing.T, path string, m *cluster.Map, stamp time.Time) {
	t.Helper()
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
}

// TestShardMapWatcher drives the -cluster shard:N@MAP lifecycle: a member comes up
// ready, adopts a newer map rolled out to the file, reports a map it
// cannot adopt (its shard dropped) as not-ready, and reports a corrupted
// file as unfetchable — all through /readyz.
func TestShardMapWatcher(t *testing.T) {
	o := obs.New(nil, obs.NewRegistry())
	w := wallet.New(wallet.Config{Obs: o})
	path := filepath.Join(t.TempDir(), "map.json")
	base := time.Now().Add(-time.Hour)

	m1, err := cluster.Uniform([][]string{{"s0"}, {"s1"}})
	if err != nil {
		t.Fatal(err)
	}
	writeMap(t, path, m1, base)

	node, sw, err := newShardMember(path, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newDebugMux(o, w, "shard-0", nil, nil, sw))
	defer srv.Close()

	ready := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var r struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("readyz body %q: %v", body, err)
		}
		return resp.StatusCode, r.Reason
	}

	if code, reason := ready(); code != http.StatusOK || reason != "" {
		t.Fatalf("fresh member: /readyz = %d %q, want ready", code, reason)
	}

	// Roll out a split: epoch 2, shard 0 still a member -> adopted live.
	m2, err := m1.Split(1, 2, []string{"s2"})
	if err != nil {
		t.Fatal(err)
	}
	writeMap(t, path, m2, base.Add(time.Minute))
	sw.poll(o)
	if got := node.Current().Epoch; got != m2.Epoch {
		t.Fatalf("node epoch %d after rollout, want %d", got, m2.Epoch)
	}
	if code, reason := ready(); code != http.StatusOK || reason != "" {
		t.Fatalf("after adoption: /readyz = %d %q, want ready", code, reason)
	}

	// Roll out a map that drops shard 0: the member cannot adopt it and
	// must take itself out of rotation.
	m3 := &cluster.Map{Epoch: m2.Epoch + 1}
	for _, s := range m2.Shards {
		if s.ID == 0 {
			continue
		}
		m3.Shards = append(m3.Shards, s)
	}
	for _, p := range m2.Points {
		if p.Shard == 0 {
			p.Shard = 1
		}
		m3.Points = append(m3.Points, p)
	}
	writeMap(t, path, m3, base.Add(2*time.Minute))
	sw.poll(o)
	if got := node.Current().Epoch; got != m2.Epoch {
		t.Fatalf("node adopted a map dropping its shard (epoch %d)", got)
	}
	if code, reason := ready(); code != http.StatusServiceUnavailable || !strings.Contains(reason, "stale") {
		t.Fatalf("dropped shard: /readyz = %d %q, want 503 with a stale reason", code, reason)
	}

	// A corrupted file is unfetchable; the member keeps serving its
	// installed map but reports not-ready.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, base.Add(3*time.Minute), base.Add(3*time.Minute)); err != nil {
		t.Fatal(err)
	}
	sw.poll(o)
	if code, reason := ready(); code != http.StatusServiceUnavailable || !strings.Contains(reason, "unfetchable") {
		t.Fatalf("corrupt file: /readyz = %d %q, want 503 unfetchable", code, reason)
	}

	// The rollout is fixed with a valid adoptable map: ready again.
	m4 := m2.Clone()
	m4.Epoch = m3.Epoch + 1
	writeMap(t, path, m4, base.Add(4*time.Minute))
	sw.poll(o)
	if got := node.Current().Epoch; got != m4.Epoch {
		t.Fatalf("node epoch %d after repair, want %d", got, m4.Epoch)
	}
	if code, reason := ready(); code != http.StatusOK || reason != "" {
		t.Fatalf("after repair: /readyz = %d %q, want ready", code, reason)
	}
}

// TestGatewayMetricsExposeClusterMap: a gateway's /metrics carries the
// installed map's epoch and shard count, as a member's does, and follows a
// rollout the watcher adopts.
func TestGatewayMetricsExposeClusterMap(t *testing.T) {
	o := obs.New(nil, obs.NewRegistry())
	path := filepath.Join(t.TempDir(), "map.json")
	base := time.Now().Add(-time.Hour)
	m1, err := cluster.Uniform([][]string{{"127.0.0.1:1"}, {"127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	writeMap(t, path, m1, base)
	owner, err := core.NewIdentity("Gateway")
	if err != nil {
		t.Fatal(err)
	}
	gw, sw, err := newClusterGateway(path, owner, o)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := httptest.NewServer(newDebugMux(o, gw.Local(), "gateway", nil, nil, sw))
	defer srv.Close()

	metrics := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	for _, line := range []string{"drbac_cluster_epoch 1\n", "drbac_cluster_shards 2\n"} {
		if body := metrics(); !strings.Contains(body, line) {
			t.Errorf("gateway /metrics lacks %q:\n%s", line, body)
		}
	}

	m2, err := m1.Split(1, 2, []string{"127.0.0.1:3"})
	if err != nil {
		t.Fatal(err)
	}
	writeMap(t, path, m2, base.Add(time.Minute))
	sw.poll(o)
	for _, line := range []string{"drbac_cluster_epoch 2\n", "drbac_cluster_shards 3\n"} {
		if body := metrics(); !strings.Contains(body, line) {
			t.Errorf("after the rollout, gateway /metrics lacks %q:\n%s", line, body)
		}
	}
}

func TestRunClusterFlagValidation(t *testing.T) {
	dir := t.TempDir()
	key := filepath.Join(dir, "k.key")
	mapPath := filepath.Join(dir, "map.json")
	for _, args := range [][]string{
		{"-cluster", mapPath},                // no role
		{"-cluster", "shard@" + mapPath},     // no shard ID
		{"-cluster", "shard:x@" + mapPath},   // not a number
		{"-cluster", "shard:-1@" + mapPath},  // negative ID
		{"-cluster", "shard:0@"},             // no map
		{"-cluster", "gateway"},              // no map
		{"-cluster", "gateway:0@" + mapPath}, // a gateway has no shard ID
		{"-cluster", "replica@" + mapPath},   // unknown role
		{"-cluster", "gateway@" + mapPath, "-replica-of", "127.0.0.1:1"},
		{"-cluster", "gateway@" + mapPath, "-load", dir},
		{"-cluster", "gateway@" + mapPath, "-state", filepath.Join(dir, "state")},
	} {
		err := run(append([]string{"-key", key}, args...))
		if err == nil || !strings.Contains(err.Error(), "want shard:N@MAP, or gateway@MAP without") {
			t.Errorf("run %v: %v, want the one -cluster usage error", args, err)
		}
	}
	for spec, want := range map[string]clusterSpec{
		"":                    {},
		"shard:3@maps/m.json": {shard: 3, mapPath: "maps/m.json"},
		"gateway@m@odd.json":  {gateway: true, mapPath: "m@odd.json"},
	} {
		if got, ok := parseClusterSpec(spec); !ok || got != want {
			t.Errorf("parseClusterSpec(%q) = %+v, %v; want %+v", spec, got, ok, want)
		}
	}
}
