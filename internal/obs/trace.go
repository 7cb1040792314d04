package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log/slog"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// traceFallback seeds trace IDs when crypto/rand is unavailable.
var traceFallback atomic.Uint64

// NewTraceID returns a fresh 16-hex-character trace identifier. Trace IDs
// are minted once per top-level operation (a discovery, a CLI request) and
// propagate over the wire protocol's traceId field so every wallet touched
// by the operation logs under the same ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		v := traceFallback.Add(1)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 8-hex-character span identifier. Span IDs only
// need to be unique within one trace, so a cheap PRNG is fine — trace IDs
// keep the cryptographic source.
func NewSpanID() string {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], mrand.Uint32())
	return hex.EncodeToString(b[:])
}

// TraceContext identifies a caller's position in a trace: the trace it
// belongs to and the span the next hop should nest under. It is what
// crosses the wire (as the traceId/spanId request fields).
type TraceContext struct {
	TraceID string
	SpanID  string
}

// Obs bundles the observability channels a component reports into: a
// structured logger, a metrics registry, an optional trace collector, and
// optional latency SLOs. Components accept a *Obs and tolerate nil (all
// methods no-op), so instrumentation is strictly opt-in.
type Obs struct {
	log       *slog.Logger
	reg       *Registry
	collector atomic.Pointer[Collector]

	sloMu sync.RWMutex
	slos  map[string]*SLO
}

// New bundles a logger and a registry. Either may be nil.
func New(log *slog.Logger, reg *Registry) *Obs {
	return &Obs{log: log, reg: reg}
}

// Log returns the logger, never nil (a discard logger stands in).
func (o *Obs) Log() *slog.Logger {
	if o == nil || o.log == nil {
		return discardLogger
	}
	return o.log
}

// Registry returns the metrics registry, which may be nil.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter resolves a counter from the registry; an uninstrumented component
// gets a live counter of its own that no registry exports, so the one counter
// it bumps is also the one its Stats reads. Components resolve their hot-path
// counters once at construction instead of per event.
func (o *Obs) Counter(name string) *Counter {
	if reg := o.Registry(); reg != nil {
		return reg.Counter(name)
	}
	return &Counter{}
}

// Histogram resolves a histogram from the registry (nil when
// uninstrumented — still safe to Observe).
func (o *Obs) Histogram(name string, buckets ...float64) *Histogram {
	return o.Registry().Histogram(name, buckets...)
}

// DebugEnabled reports whether debug-level records would be emitted,
// letting hot paths skip attribute assembly entirely.
func (o *Obs) DebugEnabled() bool {
	if o == nil || o.log == nil {
		return false
	}
	return o.log.Enabled(context.Background(), slog.LevelDebug)
}

// SetCollector attaches a trace collector: completed spans are assembled
// into retained traces according to the collector's sampling rules. Attach
// before the Obs is shared across goroutines.
func (o *Obs) SetCollector(c *Collector) {
	if o == nil {
		return
	}
	o.collector.Store(c)
}

// TraceCollector returns the attached collector, nil when tracing is
// log-only.
func (o *Obs) TraceCollector() *Collector {
	if o == nil {
		return nil
	}
	return o.collector.Load()
}

// SlowThreshold returns the attached collector's slow-trace threshold, or
// zero when there is no collector (slow-query capture disabled).
func (o *Obs) SlowThreshold() time.Duration {
	if c := o.TraceCollector(); c != nil {
		return c.cfg.SlowThreshold
	}
	return 0
}

// RegisterSLO attaches a latency SLO under its name so components can
// resolve it with SLO(name). Attach before the Obs is shared across
// goroutines.
func (o *Obs) RegisterSLO(s *SLO) {
	if o == nil || s == nil {
		return
	}
	o.sloMu.Lock()
	defer o.sloMu.Unlock()
	if o.slos == nil {
		o.slos = make(map[string]*SLO)
	}
	o.slos[s.Name()] = s
}

// SLO returns the registered SLO with the given name, nil when absent
// (still safe to Observe).
func (o *Obs) SLO(name string) *SLO {
	if o == nil {
		return nil
	}
	o.sloMu.RLock()
	defer o.sloMu.RUnlock()
	return o.slos[name]
}

// Span is one timed region of a trace. Spans log their start, events, and
// end (with duration) at debug level, each record carrying the trace ID and
// span name so a cross-wallet operation reads as one story. When the Obs
// has a collector the completed span is additionally retained in-process
// and assembled into a trace tree, its attributes kept as given and
// rendered to text when the trace is read. Debug records are built only
// when debug logging is on. A nil span (from a nil *Obs) is a no-op.
type Span struct {
	o      *Obs
	col    *Collector // non-nil when the span will be retained
	trace  string
	id     string
	parent string
	name   string
	start  time.Time
	root   bool // opened by StartSpan/StartServerSpan, not StartChild

	mu sync.Mutex
	// attrs is the key/value args retained for the collector: the start's,
	// then End's appended into the room left after them.
	attrs  []any
	events []SpanEvent
	err    string
	ended  bool
}

// StartSpan opens a root span under the given trace ID, logging "span
// start" with the supplied attributes.
func (o *Obs) StartSpan(traceID, name string, args ...any) *Span {
	return o.startRoot(traceID, "", name, args)
}

// StartServerSpan opens a root span that continues a remote caller's trace:
// parentID is the caller's span ID carried over the wire, so this hop nests
// under the caller in the merged cross-wallet tree.
func (o *Obs) StartServerSpan(traceID, parentID, name string, args ...any) *Span {
	return o.startRoot(traceID, parentID, name, args)
}

func (o *Obs) startRoot(traceID, parentID, name string, args []any) *Span {
	if o == nil {
		return nil
	}
	s := &Span{
		o:      o,
		trace:  traceID,
		id:     NewSpanID(),
		parent: parentID,
		name:   name,
		start:  time.Now(),
		root:   true,
	}
	if c := o.TraceCollector(); c != nil && c.startRoot(traceID) {
		s.col = c
	}
	if s.col != nil && len(args) > 0 {
		s.attrs = append(make([]any, 0, len(args)+endRoom), args...)
	}
	if o.DebugEnabled() {
		o.Log().Debug("span start", s.withIDs(args)...)
	}
	return s
}

// StartChild opens a sub-span of s: same trace, parented to s's span ID.
// On a nil span it returns nil (still safe to use).
func (s *Span) StartChild(name string, args ...any) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		o:      s.o,
		col:    s.col,
		trace:  s.trace,
		id:     NewSpanID(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
	if c.col != nil && len(args) > 0 {
		c.attrs = append(make([]any, 0, len(args)+endRoom), args...)
	}
	if s.o.DebugEnabled() {
		s.o.Log().Debug("span start", c.withIDs(args)...)
	}
	return c
}

// TraceID returns the span's trace identifier ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// ID returns the span's own identifier ("" on a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Context returns the span's position in its trace, for propagating to the
// next hop. A nil span yields a zero TraceContext.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.trace, SpanID: s.id}
}

// Fail records an error on the span. A trace containing a failed span is
// always retained by the collector regardless of sampling.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if s.err == "" {
		s.err = err.Error()
	}
	s.mu.Unlock()
}

// Event logs one point-in-time occurrence inside the span.
func (s *Span) Event(msg string, args ...any) {
	if s == nil {
		return
	}
	if s.col != nil {
		ev := SpanEvent{Msg: msg, OffsetUS: time.Since(s.start).Microseconds()}
		if len(args) > 0 {
			ev.args = settle(append(make([]any, 0, len(args)), args...))
		}
		s.mu.Lock()
		// An event after End reaches no record: End handed the collector
		// the events so far, which it may be rendering.
		if !s.ended && len(s.events) < maxSpanEvents {
			s.events = append(s.events, ev)
		}
		s.mu.Unlock()
	}
	if s.o.DebugEnabled() {
		s.o.Log().Debug(msg, s.withIDs(args)...)
	}
}

// maxSpanEvents bounds per-span retained events; logs are unaffected.
const maxSpanEvents = 32

// End closes the span, logging "span end" with its duration and the
// supplied attributes, hands the completed span to the collector (if any),
// and returns the duration.
func (s *Span) End(args ...any) time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.col != nil {
		s.mu.Lock()
		if !s.ended {
			s.ended = true
			rec := SpanRecord{
				TraceID:    s.trace,
				SpanID:     s.id,
				ParentID:   s.parent,
				Name:       s.name,
				Root:       s.root,
				Start:      s.start,
				DurationUS: d.Microseconds(),
				Err:        s.err,
				Events:     s.events,
			}
			rec.args = settle(append(s.attrs, args...))
			s.mu.Unlock()
			s.col.addSpan(rec)
			if s.root {
				s.col.endRoot(s.trace)
			}
		} else {
			s.mu.Unlock()
		}
	}
	if s.o.DebugEnabled() {
		s.o.Log().Debug("span end", append(s.withIDs(args), "duration_ms", float64(d.Microseconds())/1000)...)
	}
	return d
}

// withIDs prefixes a debug record's args with the span's identity, leaving
// room for End's duration.
func (s *Span) withIDs(args []any) []any {
	out := make([]any, 0, len(args)+10)
	out = append(out, "trace", s.trace, "span", s.name, "span_id", s.id)
	if s.parent != "" {
		out = append(out, "parent_id", s.parent)
	}
	return append(out, args...)
}

// endRoom is the room a span's retained args leave for End's: the
// "found"/"results" pairs most spans end with.
const endRoom = 4

// settle readies slog-style key/value args for the collector, which renders
// them (attrMap) only when the trace is read. A string, bool or number
// renders the same text then as now and is kept as given; any other value is
// rendered now, so a later change to it cannot reach the trace.
func settle(args []any) []any {
	for i := 1; i < len(args); i += 2 {
		switch args[i].(type) {
		case string, bool, int, int8, int16, int32, int64,
			uint, uint8, uint16, uint32, uint64, float32, float64:
		default:
			args[i] = fmt.Sprint(args[i])
		}
	}
	return args
}

// attrMap flattens slog-style key/value args into a string map for span
// retention. Keys must be strings (as slog requires); values are formatted
// with fmt.Sprint.
func attrMap(args []any) map[string]string {
	m := make(map[string]string, len(args)/2)
	for i := 0; i+1 < len(args); i += 2 {
		k, ok := args[i].(string)
		if !ok {
			continue
		}
		m[k] = fmt.Sprint(args[i+1])
	}
	return m
}

// spanCtxKey carries the active span through a context.Context so layers
// without an explicit span parameter (peer dials, proxy admission) can
// parent their work correctly.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp; a nil span returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// traceCtxKey carries a bare TraceContext for callers that know a trace ID
// (or a position received off the wire) but hold no live span.
type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc as the position the next
// remote hop nests under; a zero tc returns ctx unchanged.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if tc == (TraceContext{}) {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext returns the trace position ctx carries for the next hop:
// a TraceContext set with ContextWithTrace, else the active span's. The
// explicit one is read first so a caller whose ctx still holds a parent's
// span can name a different position.
func TraceFromContext(ctx context.Context) TraceContext {
	if tc, ok := ctx.Value(traceCtxKey{}).(TraceContext); ok {
		return tc
	}
	return SpanFromContext(ctx).Context()
}
