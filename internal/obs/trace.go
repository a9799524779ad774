package obs

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTracer is the process-wide tracer the cmd binaries expose at
// /debug/spans. Components accept a *Tracer and fall back to this when
// given nil.
var DefaultTracer = NewTracer(256)

// TraceparentHeader is the W3C trace-context header the speculative
// stack propagates: a request entering the client carries one trace ID
// through proxy and server hops (and back through speculative pulls), so
// the spans of every process involved in a request share a trace ID and
// can be merged into one tree. It is spelled the way net/http canonicalizes
// header names (and so the way it already went out on the wire): Header.Get
// and Header.Set allocate the canonical form of any other spelling on every
// call.
const TraceparentHeader = "Traceparent"

// SpanID identifies one span; 0 means "no span / no parent". IDs are
// drawn from the runtime's per-thread random source: no state is shared
// between the goroutines opening spans, and spans from different processes
// in one trace do not collide when their rings are merged.
type SpanID uint64

func newSpanID() SpanID {
	for {
		if id := rand.Uint64(); id != 0 { // 0 is reserved for "no span"
			return SpanID(id)
		}
	}
}

// traceID is the 128-bit W3C trace ID as two words, hi being the first
// sixteen hex digits on the wire. The all-zero ID is invalid (and is what
// "no trace" looks like); the hex string exists only where a human or the
// wire reads it.
type traceID struct{ hi, lo uint64 }

func newTraceID() traceID {
	return traceID{hi: rand.Uint64(), lo: uint64(newSpanID())}
}

func (id traceID) isZero() bool { return id.hi == 0 && id.lo == 0 }

// String renders the 32-hex-digit form ("" for the zero ID).
func (id traceID) String() string {
	if id.isZero() {
		return ""
	}
	var b [32]byte
	putHex16(b[:16], id.hi)
	putHex16(b[16:], id.lo)
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

// putHex16 writes v as sixteen lowercase hex digits into dst[:16].
func putHex16(dst []byte, v uint64) {
	_ = dst[15]
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// parseHex16 reads exactly sixteen lowercase hex digits from s[:16].
func parseHex16(s string) (v uint64, ok bool) {
	_ = s[15]
	for i := 0; i < 16; i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint64(c)
	}
	return v, true
}

// parseTraceID reads the 32-hex-digit form; anything else is not an ID and
// comes back as the zero ID.
func parseTraceID(s string) (id traceID, ok bool) {
	if len(s) != 32 {
		return traceID{}, false
	}
	hi, ok1 := parseHex16(s[:16])
	lo, ok2 := parseHex16(s[16:])
	if !ok1 || !ok2 {
		return traceID{}, false
	}
	id = traceID{hi, lo}
	return id, !id.isZero()
}

// Offsets of the fields of `vv-<32 hex>-<16 hex>-ff`, the shortest
// traceparent value there is.
const (
	tpTrace = 3
	tpSpan  = tpTrace + 32 + 1
	tpFlags = tpSpan + 16 + 1
	tpLen   = tpFlags + 2
)

// parseTraceparent reads a W3C traceparent value where it lies: the fields
// sit at fixed offsets, so there is nothing to split. It accepts any
// two-byte version and any trailing fields (a future version may add
// some), requires the canonical lowercase-hex widths, and rejects the
// all-zero trace and span IDs the spec declares invalid.
func parseTraceparent(h string) (trace traceID, parent SpanID, ok bool) {
	h = strings.TrimSpace(h)
	if len(h) < tpFlags || h[0] == '-' || h[1] == '-' ||
		h[tpTrace-1] != '-' || h[tpSpan-1] != '-' || h[tpFlags-1] != '-' {
		return traceID{}, 0, false
	}
	trace, ok = parseTraceID(h[tpTrace : tpSpan-1])
	span, spanOK := parseHex16(h[tpSpan:])
	if !ok || !spanOK || span == 0 {
		return traceID{}, 0, false
	}
	return trace, SpanID(span), true
}

// ParseTraceparent extracts the trace ID and parent span ID from a W3C
// traceparent header value, under parseTraceparent's rules.
func ParseTraceparent(h string) (traceID string, parent SpanID, ok bool) {
	trace, parent, ok := parseTraceparent(h)
	return trace.String(), parent, ok
}

// Span is one finished operation as /debug/spans, Recent and Trace show
// it. Nothing on the request path builds one: spans are kept as flat
// records and rendered into this form when somebody reads them.
type Span struct {
	Trace    string            `json:"trace,omitempty"`
	ID       SpanID            `json:"id"`
	Parent   SpanID            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// inlineAttrs is how many attributes a span holds. The widest span in the
// stack, server.request, sets four (path, rung, speculation or status,
// kind or shed).
const inlineAttrs = 4

// droppedAttrsKey is the attribute a rendered span gains when SetAttr was
// called with more distinct keys than inlineAttrs: its value counts the
// calls that found no room, so an overflow is visible, never silent.
const droppedAttrsKey = "obs.dropped_attrs"

type attr struct{ k, v string }

// record is a span as the tracer holds it, in flight and in the ring
// alike: fixed size, everything by value, so finishing a span is one
// struct copy into its ring slot and the slot shares no mutable memory
// with the ActiveSpan it came from.
type record struct {
	trace   traceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time
	dur     time.Duration
	attrs   [inlineAttrs]attr
	nattrs  uint8
	dropped uint8 // SetAttr calls that found attrs full; saturates
}

// span renders the record in its exported form.
func (r *record) span() Span {
	s := Span{Trace: r.trace.String(), ID: r.id, Parent: r.parent,
		Name: r.name, Start: r.start, Duration: r.dur}
	if r.nattrs > 0 {
		s.Attrs = make(map[string]string, r.nattrs)
		for _, a := range r.attrs[:r.nattrs] {
			s.Attrs[a.k] = a.v
		}
		if r.dropped > 0 {
			s.Attrs[droppedAttrsKey] = strconv.Itoa(int(r.dropped))
		}
	}
	return s
}

// Tracer records spans into a bounded ring: the most recent spans are
// retained, older ones overwritten. All methods are safe on a nil
// *Tracer (they no-op), so instrumentation never needs a nil check.
type Tracer struct {
	// clock supplies span times when set; tests inject a fixed one so the
	// /debug/spans format can be pinned by a golden file. Read without the
	// ring lock: starting a span takes no lock at all.
	clock atomic.Pointer[func() time.Time]

	mu    sync.Mutex
	ring  []record // len == capacity; slots [0, min(total, capacity)) are filled
	head  int      // next write position
	total uint64   // spans ever finished
}

// NewTracer returns a tracer retaining the last capacity finished spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]record, capacity)}
}

// SetClock injects the span time source (nil restores time.Now).
// Deterministic tests use it to pin span output.
func (t *Tracer) SetClock(clock func() time.Time) {
	if t == nil {
		return
	}
	if clock == nil {
		t.clock.Store(nil)
		return
	}
	t.clock.Store(&clock)
}

func (t *Tracer) now() time.Time {
	if clock := t.clock.Load(); clock != nil {
		return (*clock)()
	}
	return time.Now()
}

// since is now().Sub(start); on the real clock it reads only the monotonic
// half, which is all a duration needs.
func (t *Tracer) since(start time.Time) time.Duration {
	if clock := t.clock.Load(); clock != nil {
		return (*clock)().Sub(start)
	}
	return time.Since(start)
}

// ActiveSpan is an in-flight span; call Finish to record it. It stays
// readable after Finish (ID, TraceID, Traceparent), and a SetAttr after
// Finish changes only this value, never the record already in the ring.
type ActiveSpan struct {
	t   *Tracer
	rec record
}

// Start begins a root span under a fresh trace ID.
func (t *Tracer) Start(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return t.start(name, newTraceID(), 0)
}

// StartChild begins a span under parent, inheriting its trace ID. A nil
// parent starts a fresh root span.
func (t *Tracer) StartChild(name string, parent *ActiveSpan) *ActiveSpan {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.Start(name)
	}
	return t.start(name, parent.rec.trace, parent.rec.id)
}

// StartRemote continues a trace arriving from another process: it parses
// the W3C traceparent header value and begins a span with that trace ID,
// parented on the remote span. An empty or invalid header starts a fresh
// root span, so callers can pass the header through unconditionally.
func (t *Tracer) StartRemote(name, traceparent string) *ActiveSpan {
	if t == nil {
		return nil
	}
	if trace, parent, ok := parseTraceparent(traceparent); ok {
		return t.start(name, trace, parent)
	}
	return t.Start(name)
}

// start makes the span's one allocation.
func (t *Tracer) start(name string, trace traceID, parent SpanID) *ActiveSpan {
	s := &ActiveSpan{t: t}
	s.rec.trace = trace
	s.rec.id = newSpanID()
	s.rec.parent = parent
	s.rec.name = name
	s.rec.start = t.now()
	return s
}

// ID returns the span's ID (0 on a nil span), for parenting children.
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.rec.id
}

// TraceID returns the span's trace ID as 32 hex digits ("" on a nil
// span). It builds the string; the request path has no use for it.
func (s *ActiveSpan) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.trace.String()
}

// Traceparent renders the span as a W3C traceparent header value,
// 00-<trace-id>-<span-id>-01, for propagation to the next hop ("" on a
// nil span).
func (s *ActiveSpan) Traceparent() string {
	if s == nil {
		return ""
	}
	var b [tpLen]byte
	copy(b[:], "00-")
	putHex16(b[tpTrace:], s.rec.trace.hi)
	putHex16(b[tpTrace+16:], s.rec.trace.lo)
	b[tpSpan-1] = '-'
	putHex16(b[tpSpan:], uint64(s.rec.id))
	copy(b[tpFlags-1:], "-01")
	return string(b[:])
}

// SetAttr attaches a key/value annotation; setting a key again replaces
// its value. A span holds inlineAttrs distinct keys: a call beyond that is
// counted and shows as droppedAttrsKey when the span is read.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	r := &s.rec
	for i := range r.attrs[:r.nattrs] {
		if r.attrs[i].k == k {
			r.attrs[i].v = v
			return
		}
	}
	if int(r.nattrs) == len(r.attrs) {
		if r.dropped < math.MaxUint8 {
			r.dropped++
		}
		return
	}
	r.attrs[r.nattrs] = attr{k, v}
	r.nattrs++
}

// Finish stamps the duration and copies the span's record into the ring.
func (s *ActiveSpan) Finish() {
	if s == nil {
		return
	}
	t := s.t
	s.rec.dur = t.since(s.rec.start)
	t.mu.Lock()
	t.ring[t.head] = s.rec
	if t.head++; t.head == len(t.ring) {
		t.head = 0
	}
	t.total++
	t.mu.Unlock()
}

// retained copies out the retained records matching keep, oldest first.
// Rendering them happens after the lock is dropped.
func (t *Tracer) retained(keep func(*record) bool) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	older, newer := t.ring[t.head:], t.ring[:t.head]
	if t.total < uint64(len(t.ring)) {
		older = nil // not wrapped yet: nothing lives past head
	}
	recs := make([]record, 0, len(older)+len(newer))
	for _, part := range [2][]record{older, newer} {
		for i := range part {
			if keep == nil || keep(&part[i]) {
				recs = append(recs, part[i])
			}
		}
	}
	t.mu.Unlock()
	out := make([]Span, len(recs))
	for i := range recs {
		out[i] = recs[i].span()
	}
	return out
}

// Recent returns the retained spans, oldest first.
func (t *Tracer) Recent() []Span { return t.retained(nil) }

// Trace returns the retained spans belonging to one trace ID (32 hex
// digits), oldest first.
func (t *Tracer) Trace(id string) []Span {
	want, ok := parseTraceID(id)
	if !ok {
		return nil
	}
	if spans := t.retained(func(r *record) bool { return r.trace == want }); len(spans) > 0 {
		return spans
	}
	return nil // "spans": null on /debug/spans, as an unknown trace always read
}

// Total returns how many spans have ever finished (including overwritten
// ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// SpanNode is one node of a rendered request tree: a span and the spans
// parented on it, ordered by start time.
type SpanNode struct {
	Span
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildTree arranges spans into parent/child trees. Spans whose parent
// is absent (0, overwritten, or recorded by another process) become
// roots. Roots and children are ordered by start time, then span ID, so
// the rendering is deterministic for a fixed span set.
func BuildTree(spans []Span) []*SpanNode {
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanNode{Span: s}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].ID < ns[j].ID
		})
	}
	order(roots)
	for _, n := range nodes {
		order(n.Children)
	}
	return roots
}

// spansPayload is the /debug/spans JSON document. With a ?trace= filter
// the payload carries only that trace's spans plus their tree rendering.
type spansPayload struct {
	Total uint64      `json:"total"`
	Trace string      `json:"trace,omitempty"`
	Spans []Span      `json:"spans"`
	Tree  []*SpanNode `json:"tree,omitempty"`
}

// Handler serves the ring as JSON — mount it at /debug/spans. A
// ?trace=<id> query filters to one trace and adds its request tree, so a
// whole client→proxy→server request can be read as one nested document.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := spansPayload{Total: t.Total()}
		if id := r.URL.Query().Get("trace"); id != "" {
			payload.Trace = id
			payload.Spans = t.Trace(id)
			payload.Tree = BuildTree(payload.Spans)
		} else {
			payload.Spans = t.Recent()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload)
	})
}
