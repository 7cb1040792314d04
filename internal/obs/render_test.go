package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
)

var updateSpans = flag.Bool("update", false, "rewrite testdata/*.golden from the current behaviour")

// eager renders key/value args the way a span's attributes read: each value
// as fmt.Sprint prints it.
func eager(args ...any) map[string]string {
	m := make(map[string]string, len(args)/2)
	for i := 0; i+1 < len(args); i += 2 {
		m[args[i].(string)] = fmt.Sprint(args[i+1])
	}
	return m
}

// mutable is a value whose text changes after it is passed to a span.
type mutable struct{ n int }

func (m *mutable) String() string { return fmt.Sprintf("mutable-%d", m.n) }

// TestRetainedAttrsMatchEagerRendering records spans whose attributes are
// strings, bools, ints and floats — and one value that changes after it was
// passed — with events, a child and a failure, and checks that every way an
// operator reads the trace (Get, Spans, the /debug/traces tree) sees the
// maps rendering at Event and End made before they were deferred.
func TestRetainedAttrsMatchEagerRendering(t *testing.T) {
	o := New(nil, nil)
	col := NewCollector(nil, CollectorConfig{SampleRate: 1})
	o.SetCollector(col)

	m := &mutable{n: 1}
	root := o.StartSpan("t1", "discover", "subject", "Maria", "depth", 3)
	root.Event("remote query", "wallet", "w1", "results", 2, "found", false, "ratio", 0.5)
	root.Event("local hit")
	child := root.StartChild("rpc:expand", "node", m, "cost_ms", 1.25)
	m.n = 2 // the retained text is the one at End, as it always was
	child.Fail(errors.New("peer went away"))
	child.End("ok", false, "big", 1<<40)
	m.n = 3
	root.End("found", true, "rounds", 3, "unsigned", uint8(7))

	want := map[string]struct {
		attrs  map[string]string
		events []map[string]string
		err    string
	}{
		"discover": {
			attrs:  eager("subject", "Maria", "depth", 3, "found", true, "rounds", 3, "unsigned", uint8(7)),
			events: []map[string]string{eager("wallet", "w1", "results", 2, "found", false, "ratio", 0.5), nil},
		},
		"rpc:expand": {
			attrs: eager("node", "mutable-2", "cost_ms", 1.25, "ok", false, "big", 1<<40),
			err:   "peer went away",
		},
	}
	check := func(how string, spans []SpanRecord) {
		t.Helper()
		if len(spans) != len(want) {
			t.Fatalf("%s: %d spans, want %d", how, len(spans), len(want))
		}
		for _, sp := range spans {
			w := want[sp.Name]
			if !reflect.DeepEqual(sp.Attrs, w.attrs) {
				t.Errorf("%s: %s attrs = %v, want %v", how, sp.Name, sp.Attrs, w.attrs)
			}
			if sp.Err != w.err {
				t.Errorf("%s: %s err = %q, want %q", how, sp.Name, sp.Err, w.err)
			}
			if len(sp.Events) != len(w.events) {
				t.Fatalf("%s: %s has %d events, want %d", how, sp.Name, len(sp.Events), len(w.events))
			}
			for i, ev := range sp.Events {
				if !reflect.DeepEqual(ev.Attrs, w.events[i]) {
					t.Errorf("%s: %s event %d attrs = %#v, want %#v", how, sp.Name, i, ev.Attrs, w.events[i])
				}
			}
		}
	}

	rec, ok := col.Get("t1")
	if !ok {
		t.Fatal("trace not retained")
	}
	check("Get", rec.Spans)
	check("Spans", col.Spans("t1"))
	again, _ := col.Get("t1")
	if a, b := mustJSON(t, rec), mustJSON(t, again); a != b {
		t.Errorf("a second Get reads differently:\n%s\n%s", a, b)
	}

	w := httptest.NewRecorder()
	TracesHandler(col).ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/t1", nil))
	var tree struct{ Spans []*SpanNode }
	if err := json.Unmarshal(w.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	var flat []SpanRecord
	var walk func([]*SpanNode)
	walk = func(ns []*SpanNode) {
		for _, n := range ns {
			flat = append(flat, n.SpanRecord)
			walk(n.Children)
		}
	}
	walk(tree.Spans)
	check("/debug/traces", flat)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpanDebugRecords checks that with debug logging on, spans still emit
// their "span start", event and "span end" records as
// testdata/spans.golden has them (span IDs and durations normalized), with
// a collector attached and without. Regenerate with
// `go test -run SpanDebugRecords -update ./internal/obs`.
func TestSpanDebugRecords(t *testing.T) {
	var buf bytes.Buffer
	opts := &slog.HandlerOptions{Level: slog.LevelDebug, ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
		switch {
		case a.Key == slog.TimeKey:
			return slog.Attr{}
		case a.Key == "duration_ms" && a.Value.Kind() == slog.KindFloat64:
			return slog.Float64("duration_ms", 0.25)
		}
		return a
	}}
	for _, collect := range []bool{false, true} {
		o := New(slog.New(slog.NewJSONHandler(&buf, opts)), nil)
		if collect {
			o.SetCollector(NewCollector(nil, CollectorConfig{SampleRate: 1}))
		}
		root := o.StartServerSpan("t1", "caller01", "serve:query-expand", "subject", "Maria", "object", "BigISP.member")
		root.Event("remote query", "round", 1, "found", false)
		child := root.StartChild("proxy.pull", "steps", 2)
		child.End("ok", true, "ratio", 0.5)
		root.End("found", true, "results", 3)
		o.StartSpan("t2", "logstore.commit").End()
	}
	ids := regexp.MustCompile(`"(span_id|parent_id)":"[0-9a-f]{8}"`)
	got := ids.ReplaceAllString(buf.String(), `"$1":"<id>"`)
	got = regexp.MustCompile(`"parent_id":"caller01"`).ReplaceAllString(got, `"parent_id":"<caller>"`)
	path := filepath.Join("testdata", "spans.golden")
	if *updateSpans {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("span debug records differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// Rendering writes the retained records it reads, so readers race writers
// here: later roots of a retained trace end and merge into it, and late
// events arrive on ended spans, while other goroutines read the trace. Run
// under -race; every read must see whole, rendered attributes.
func TestRenderWhileSpansEnd(t *testing.T) {
	o := New(nil, nil)
	col := NewCollector(nil, CollectorConfig{SampleRate: 1})
	o.SetCollector(col)
	o.StartSpan("t1", "discover").End()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sp := o.StartServerSpan("t1", "caller01", "serve:query-expand", "worker", g)
				sp.Event("remote query", "i", i)
				sp.End("ok", true)
				sp.Event("late", "i", i)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, sp := range col.Spans("t1") {
					if sp.Name == "serve:query-expand" && (sp.Attrs["ok"] != "true" || len(sp.Events) != 1 || sp.Events[0].Attrs["i"] == "") {
						t.Errorf("read a span not whole: %+v", sp)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := len(col.Spans("t1")); n < 2 {
		t.Fatalf("trace merged %d spans", n)
	}
}
