package obs

import (
	"encoding/json"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpanEvent is one retained point-in-time occurrence inside a span.
type SpanEvent struct {
	Msg      string            `json:"msg"`
	OffsetUS int64             `json:"offsetUs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	// args is Attrs not yet rendered: the collector keeps the key/value
	// args as given and renders them when the trace is read.
	args []any
}

// SpanRecord is one completed span as retained by the collector and as
// shipped over the wire by the trace request.
type SpanRecord struct {
	TraceID    string            `json:"traceId"`
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId,omitempty"`
	Name       string            `json:"name"`
	Root       bool              `json:"root,omitempty"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"durationUs"`
	Err        string            `json:"err,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []SpanEvent       `json:"events,omitempty"`
	// args is Attrs not yet rendered, as on SpanEvent.
	args []any
}

// render fills Attrs and the events' Attrs from the args kept for them.
// Rendering happens at the first read, under the collector's lock, so no
// copy handed out ever sees a record change.
func (sp *SpanRecord) render() {
	if sp.args != nil {
		sp.Attrs, sp.args = attrMap(sp.args), nil
	}
	for i := range sp.Events {
		if ev := &sp.Events[i]; ev.args != nil {
			ev.Attrs, ev.args = attrMap(ev.args), nil
		}
	}
}

// TraceRecord is one retained completed trace: its spans plus the
// trace-level rollup the retention decision was made on.
type TraceRecord struct {
	ID             string       `json:"id"`
	Root           string       `json:"root"`
	Start          time.Time    `json:"start"`
	DurationUS     int64        `json:"durationUs"`
	Err            string       `json:"err,omitempty"`
	Slow           bool         `json:"slow,omitempty"`
	TruncatedSpans int          `json:"truncatedSpans,omitempty"`
	Spans          []SpanRecord `json:"spans"`
}

// TraceSummary is the list-view projection of a retained trace.
type TraceSummary struct {
	ID         string    `json:"id"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"durationUs"`
	Err        string    `json:"err,omitempty"`
	Slow       bool      `json:"slow,omitempty"`
	Spans      int       `json:"spans"`
}

// CollectorConfig tunes the trace collector. Zero values take the listed
// defaults, except SampleRate: a zero rate genuinely means "retain only
// slow and erring traces" (tail sampling with 0% head sampling), so callers
// wanting everything must say 1.0.
type CollectorConfig struct {
	// Capacity is the number of completed traces retained in the ring
	// (default 256). The oldest retained trace is evicted on overflow.
	Capacity int
	// SlowThreshold marks a trace slow — always retained and surfaced by
	// the slow filter (default 250ms).
	SlowThreshold time.Duration
	// SampleRate is the fraction [0,1] of ordinary (fast, error-free)
	// traces retained, decided deterministically from the trace ID so all
	// wallets in a coalition keep the same traces.
	SampleRate float64
}

const (
	// maxSpansPerTrace bounds per-trace span retention; spans beyond the
	// cap are counted in TruncatedSpans.
	maxSpansPerTrace = 64
	// maxActive bounds concurrently assembling traces; beyond it new traces
	// are not tracked.
	maxActive = 1024
)

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	return c
}

// activeTrace is a trace still assembling: spans accumulate until every
// open root span on this wallet has ended.
type activeTrace struct {
	openRoots int
	spans     []SpanRecord
	truncated int
}

// Collector assembles completed spans into traces and retains a bounded
// ring of them with tail-sampling rules: traces that erred or ran past the
// slow threshold are always kept; the rest are head-sampled by trace ID.
type Collector struct {
	cfg CollectorConfig

	mu     sync.Mutex
	active map[string]*activeTrace
	ring   []string // trace IDs in insertion order, ring-indexed by next
	next   int
	byID   map[string]*TraceRecord

	mCompleted  *Counter
	mRetained   *Counter
	mSampledOut *Counter
	mSlow       *Counter
	mErr        *Counter
	mDropped    *Counter
}

// NewCollector builds a collector and registers its metrics (reg may be
// nil).
func NewCollector(reg *Registry, cfg CollectorConfig) *Collector {
	c := &Collector{
		cfg:         cfg.withDefaults(),
		active:      make(map[string]*activeTrace),
		byID:        make(map[string]*TraceRecord),
		mCompleted:  reg.Counter("drbac_trace_completed_total"),
		mRetained:   reg.Counter("drbac_trace_retained_total"),
		mSampledOut: reg.Counter("drbac_trace_sampled_out_total"),
		mSlow:       reg.Counter("drbac_trace_slow_total"),
		mErr:        reg.Counter("drbac_trace_error_total"),
		mDropped:    reg.Counter("drbac_trace_dropped_spans_total"),
	}
	c.ring = make([]string, 0, c.cfg.Capacity)
	if reg != nil {
		reg.GaugeFunc("drbac_trace_active", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.active))
		})
		reg.GaugeFunc("drbac_trace_stored", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.byID))
		})
	}
	return c
}

// SlowThreshold returns the configured slow-trace threshold.
func (c *Collector) SlowThreshold() time.Duration {
	if c == nil {
		return 0
	}
	return c.cfg.SlowThreshold
}

// startRoot opens (or joins) an assembling trace and reports whether the
// collector is tracking it.
func (c *Collector) startRoot(traceID string) bool {
	if c == nil || traceID == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.active[traceID]
	if at == nil {
		if len(c.active) >= maxActive {
			return false
		}
		at = &activeTrace{}
		c.active[traceID] = at
	}
	at.openRoots++
	return true
}

// addSpan retains a completed span on its assembling trace. Spans for
// traces the collector is not tracking are dropped.
func (c *Collector) addSpan(rec SpanRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.active[rec.TraceID]
	if at == nil {
		c.mDropped.Inc()
		return
	}
	if len(at.spans) >= maxSpansPerTrace {
		at.truncated++
		c.mDropped.Inc()
		return
	}
	at.spans = append(at.spans, rec)
}

// endRoot closes one root span; when the last open root closes the trace
// finalizes and the retention decision is made.
func (c *Collector) endRoot(traceID string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.active[traceID]
	if at == nil {
		return
	}
	at.openRoots--
	if at.openRoots > 0 {
		return
	}
	delete(c.active, traceID)
	c.finalizeLocked(traceID, at)
}

func (c *Collector) finalizeLocked(traceID string, at *activeTrace) {
	c.mCompleted.Inc()
	if len(at.spans) == 0 {
		return
	}
	rec := &TraceRecord{ID: traceID, Spans: at.spans, TruncatedSpans: at.truncated}
	rollup(rec)
	rec.Slow = c.slow(rec)
	if rec.Slow {
		c.mSlow.Inc()
	}
	if rec.Err != "" {
		c.mErr.Inc()
	}
	if prev := c.byID[traceID]; prev != nil {
		// Later roots of an already-retained trace (a wallet serving
		// several requests for one discovery) merge into the stored
		// record instead of occupying another ring slot.
		merge(prev, rec)
		return
	}
	if !rec.Slow && rec.Err == "" && !headSampled(traceID, c.cfg.SampleRate) {
		c.mSampledOut.Inc()
		return
	}
	c.mRetained.Inc()
	if len(c.ring) < c.cfg.Capacity {
		c.ring = append(c.ring, traceID)
	} else {
		delete(c.byID, c.ring[c.next])
		c.ring[c.next] = traceID
		c.next = (c.next + 1) % c.cfg.Capacity
	}
	c.byID[traceID] = rec
}

// rollup derives the trace-level fields from the spans: start is the
// earliest span start, duration spans first start to last end, err is the
// first span error, slow compares duration to the threshold at finalize.
func rollup(rec *TraceRecord) {
	var end time.Time
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if rec.Start.IsZero() || sp.Start.Before(rec.Start) {
			rec.Start = sp.Start
			if sp.Root || rec.Root == "" {
				rec.Root = sp.Name
			}
		}
		if e := sp.Start.Add(time.Duration(sp.DurationUS) * time.Microsecond); e.After(end) {
			end = e
		}
		if rec.Err == "" && sp.Err != "" {
			rec.Err = sp.Err
		}
	}
	rec.DurationUS = end.Sub(rec.Start).Microseconds()
}

func (c *Collector) slow(rec *TraceRecord) bool {
	return time.Duration(rec.DurationUS)*time.Microsecond >= c.cfg.SlowThreshold
}

func merge(dst, src *TraceRecord) {
	room := maxSpansPerTrace - len(dst.Spans)
	if room < len(src.Spans) {
		dst.TruncatedSpans += len(src.Spans) - max(room, 0)
		if room <= 0 {
			src.Spans = nil
		} else {
			src.Spans = src.Spans[:room]
		}
	}
	dst.Spans = append(dst.Spans, src.Spans...)
	dst.TruncatedSpans += src.TruncatedSpans
	if dst.Err == "" {
		dst.Err = src.Err
	}
	dst.Slow = dst.Slow || src.Slow
	rollup(dst)
}

// headSampled decides retention for ordinary traces deterministically from
// the trace ID, so every wallet in a coalition keeps the same sample.
func headSampled(traceID string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(traceID))
	return float64(h.Sum32()) < rate*float64(1<<32)
}

// Get returns a copy of the retained trace with the given ID, its span and
// event attributes rendered.
func (c *Collector) Get(id string) (TraceRecord, bool) {
	if c == nil {
		return TraceRecord{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.byID[id]
	if rec == nil {
		return TraceRecord{}, false
	}
	for i := range rec.Spans {
		rec.Spans[i].render()
	}
	out := *rec
	out.Spans = append([]SpanRecord(nil), rec.Spans...)
	return out, true
}

// Spans returns the retained spans of a trace (nil when unknown).
func (c *Collector) Spans(id string) []SpanRecord {
	rec, ok := c.Get(id)
	if !ok {
		return nil
	}
	return rec.Spans
}

// ListFilter narrows List output; zero values mean "no constraint".
type ListFilter struct {
	OnlySlow bool
	OnlyErr  bool
	MinDur   time.Duration
	Root     string
	Limit    int
}

// List returns summaries of retained traces, newest first.
func (c *Collector) List(f ListFilter) []TraceSummary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TraceSummary, 0, len(c.byID))
	for _, rec := range c.byID {
		if f.OnlySlow && !rec.Slow {
			continue
		}
		if f.OnlyErr && rec.Err == "" {
			continue
		}
		if f.MinDur > 0 && time.Duration(rec.DurationUS)*time.Microsecond < f.MinDur {
			continue
		}
		if f.Root != "" && rec.Root != f.Root {
			continue
		}
		out = append(out, TraceSummary{
			ID: rec.ID, Root: rec.Root, Start: rec.Start,
			DurationUS: rec.DurationUS, Err: rec.Err, Slow: rec.Slow,
			Spans: len(rec.Spans),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// SpanNode is a span plus its children, the JSON shape served for one
// trace.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree nests spans by parent ID. Spans whose parent is absent
// (true roots, and remote continuations whose parent lives on another
// wallet) surface at the top level, ordered by start time.
func BuildSpanTree(spans []SpanRecord) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	for _, sp := range spans {
		nodes[sp.SpanID] = &SpanNode{SpanRecord: sp}
	}
	var roots []*SpanNode
	for _, sp := range spans {
		n := nodes[sp.SpanID]
		if p := nodes[sp.ParentID]; sp.ParentID != "" && p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// TracesHandler serves the retained-trace debug surface:
//
//	GET <mount>          — summary list; filters: ?slow=1&err=1&min_ms=N&root=NAME&limit=N
//	GET <mount>/<id>     — one trace as a JSON span tree
//
// It expects to be mounted at /debug/traces (and /debug/traces/); col may
// be nil (everything 404s or lists empty).
func TracesHandler(col *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/traces"), "/")
		if id == "" {
			q := r.URL.Query()
			f := ListFilter{
				OnlySlow: q.Get("slow") == "1",
				OnlyErr:  q.Get("err") == "1",
				Root:     q.Get("root"),
			}
			if ms, err := strconv.Atoi(q.Get("min_ms")); err == nil && ms > 0 {
				f.MinDur = time.Duration(ms) * time.Millisecond
			}
			if n, err := strconv.Atoi(q.Get("limit")); err == nil && n > 0 {
				f.Limit = n
			}
			list := col.List(f)
			if list == nil {
				list = []TraceSummary{}
			}
			json.NewEncoder(w).Encode(map[string]any{"traces": list})
			return
		}
		rec, ok := col.Get(id)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "trace not retained", "id": id})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"id":             rec.ID,
			"root":           rec.Root,
			"start":          rec.Start,
			"durationUs":     rec.DurationUS,
			"err":            rec.Err,
			"slow":           rec.Slow,
			"truncatedSpans": rec.TruncatedSpans,
			"spans":          BuildSpanTree(rec.Spans),
		})
	})
}
