package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"drbac/internal/obs"
	"drbac/internal/wallet"
)

// TestDebugMux drives the -http endpoint set: /healthz golden output,
// /metrics exposition, and the pprof index.
func TestDebugMux(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	w := wallet.New(wallet.Config{Obs: o})
	reg.Counter("drbac_server_requests_total").Add(17)

	srv := httptest.NewServer(newDebugMux(o, w, "primary", nil, nil, nil))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	if ctype != "application/json" {
		t.Errorf("/healthz content-type = %q", ctype)
	}
	want := `{"status":"ok","role":"primary","delegations":0,"revoked":0,"ttlTracked":0,"watches":0,"seq":0}` + "\n"
	if body != want {
		t.Errorf("/healthz body = %q, want %q", body, want)
	}

	code, body, ctype = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	for _, line := range []string{
		"# TYPE drbac_server_requests_total counter",
		"drbac_server_requests_total 17",
		"# TYPE drbac_wallet_delegations gauge",
		"drbac_wallet_delegations 0",
		// The signature memo may be the process-wide shared one, so assert
		// only that its gauges are exported, not their (global) values.
		"# TYPE drbac_sigcache_hits gauge",
		"# TYPE drbac_sigcache_size gauge",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q in:\n%s", line, body)
		}
	}

	code, _, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

// TestReadyz drives the readiness probe: ready by default, 503 with a JSON
// reason once the store reports a durability failure.
func TestReadyz(t *testing.T) {
	o := obs.New(nil, obs.NewRegistry())
	w := wallet.New(wallet.Config{Obs: o})

	var storeErr error
	health := func() error { return storeErr }
	srv := httptest.NewServer(newDebugMux(o, w, "primary", nil, health, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status = %d, want 200", resp.StatusCode)
	}
	if got, want := string(body), `{"ready":true}`+"\n"; got != want {
		t.Errorf("/readyz body = %q, want %q", got, want)
	}

	storeErr = errors.New("commit fsync: disk gone")
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status = %d, want 503", resp.StatusCode)
	}
	var r struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Ready || !strings.Contains(r.Reason, "disk gone") {
		t.Errorf("/readyz = %+v, want not ready with the store reason", r)
	}
}

// TestNotReadyNil covers the probe's nil inputs: a primary on a store
// without failure detection is always ready.
func TestNotReadyNil(t *testing.T) {
	if reason := notReady(nil, nil, nil); reason != "" {
		t.Errorf("notReady(nil, nil, nil) = %q, want ready", reason)
	}
}

// TestDebugTracesMounted checks that a collector-enabled daemon serves the
// retained-trace endpoints and a collector-less one does not.
func TestDebugTracesMounted(t *testing.T) {
	o := obs.New(nil, obs.NewRegistry())
	o.SetCollector(obs.NewCollector(o.Registry(), obs.CollectorConfig{SampleRate: 1}))
	w := wallet.New(wallet.Config{Obs: o})

	id := obs.NewTraceID()
	sp := o.StartSpan(id, "discovery")
	sp.End()

	srv := httptest.NewServer(newDebugMux(o, w, "primary", nil, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/%s status = %d: %s", id, resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"root":"discovery"`) {
		t.Errorf("trace detail missing root span: %s", body)
	}

	bare := httptest.NewServer(newDebugMux(obs.New(nil, obs.NewRegistry()), w, "primary", nil, nil, nil))
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("collector-less /debug/traces status = %d, want 404", resp.StatusCode)
	}
}
