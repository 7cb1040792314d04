package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"regexp"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !re.MatchString(id) {
			t.Fatalf("malformed trace id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// TestSpanLogging asserts every span record carries the trace ID and span
// name, and that End reports a duration.
func TestSpanLogging(t *testing.T) {
	var buf bytes.Buffer
	o := New(NewLogger(&buf, slog.LevelDebug, true), nil)
	sp := o.StartSpan("abc123", "discover", "object", "BigISP.member")
	sp.Event("remote query", "wallet", "w1")
	sp.End("found", true)

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d records, want 3", len(lines))
	}
	wantMsgs := []string{"span start", "remote query", "span end"}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec["trace"] != "abc123" {
			t.Errorf("record %d trace = %v", i, rec["trace"])
		}
		if rec["span"] != "discover" {
			t.Errorf("record %d span = %v", i, rec["span"])
		}
		if rec["msg"] != wantMsgs[i] {
			t.Errorf("record %d msg = %v, want %q", i, rec["msg"], wantMsgs[i])
		}
	}
	var end map[string]any
	_ = json.Unmarshal(lines[2], &end)
	if _, ok := end["duration_ms"]; !ok {
		t.Error("span end missing duration_ms")
	}
	if end["found"] != true {
		t.Error("span end missing caller attrs")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "WARNING": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestDiscardLogger(t *testing.T) {
	l := DiscardLogger()
	l.Info("nothing")
	if l.Enabled(nil, slog.LevelError) { //nolint:staticcheck // nil ctx fine for handler
		t.Error("discard logger claims enabled")
	}
}

// A span that nothing logs builds no debug record, and a retained one
// renders nothing until its trace is read: start to end, with a collector
// and an Info logger, a server span allocates its own record and no more —
// 9 objects, where building both at the span's every step made 27.
func TestSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	o := New(NewLogger(io.Discard, slog.LevelInfo, false), nil)
	o.SetCollector(NewCollector(nil, CollectorConfig{SampleRate: 1}))
	subject, object := "a89c9af1", "2e4695f9.memberServices"
	n := testing.AllocsPerRun(1000, func() {
		sp := o.StartServerSpan("00000000feedface", "0000beef", "serve:query-expand", "subject", subject, "object", object)
		sp.End("found", true, "results", 3)
	})
	if n > 9 {
		t.Errorf("a retained span, start to end, allocates %v times, want at most 9", n)
	}
	if got := o.TraceCollector().Spans("00000000feedface"); len(got) == 0 || got[0].Attrs["object"] != object {
		t.Errorf("retained spans %+v lack their attributes", got)
	}
}
