package obs

import (
	"encoding/json"
	"flag"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestSpanParentChild(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("request")
	child := tr.StartChild("speculate", root)
	child.SetAttr("doc", "/a")
	child.Finish()
	root.Finish()

	spans := tr.Recent()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	// Child finished first, so it is oldest.
	if spans[0].Name != "speculate" || spans[0].Parent != root.ID() {
		t.Errorf("child span %+v", spans[0])
	}
	if spans[0].Attrs["doc"] != "/a" {
		t.Errorf("attrs %+v", spans[0].Attrs)
	}
	if spans[1].Name != "request" || spans[1].Parent != 0 {
		t.Errorf("root span %+v", spans[1])
	}
	if spans[0].ID == spans[1].ID {
		t.Error("span IDs collide")
	}
	if spans[0].Trace == "" || spans[0].Trace != spans[1].Trace {
		t.Errorf("child trace %q != root trace %q", spans[0].Trace, spans[1].Trace)
	}
}

// TestSpanRingOverflow: a full ring keeps only the newest spans, oldest
// first, and keeps counting the total.
func TestSpanRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"}
	for _, n := range names {
		tr.Start(n).Finish()
	}
	spans := tr.Recent()
	if len(spans) != 4 {
		t.Fatalf("%d spans retained, want 4", len(spans))
	}
	for i, want := range []string{"s6", "s7", "s8", "s9"} {
		if spans[i].Name != want {
			t.Errorf("spans[%d] = %q, want %q", i, spans[i].Name, want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
}

// TestSpanRingWraparoundConcurrent hammers a tiny ring from many
// goroutines (run under -race) and then checks the ring's invariants:
// exactly capacity spans retained, total equals spans finished, and no
// retained span is a zero value (a torn or skipped slot).
func TestSpanRingWraparoundConcurrent(t *testing.T) {
	const (
		workers = 8
		perG    = 200
		cap     = 7 // deliberately not a power of two
	)
	tr := NewTracer(cap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := tr.Start("op")
				child := tr.StartChild("child", sp)
				child.Finish()
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	if got, want := tr.Total(), uint64(workers*perG*2); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	spans := tr.Recent()
	if len(spans) != cap {
		t.Fatalf("%d spans retained, want %d", len(spans), cap)
	}
	seen := make(map[SpanID]bool)
	for i, s := range spans {
		if s.ID == 0 || s.Name == "" || s.Start.IsZero() {
			t.Errorf("spans[%d] is torn/zero: %+v", i, s)
		}
		if seen[s.ID] {
			t.Errorf("span ID %d appears twice in ring", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Start("noop")
	s.SetAttr("k", "v")
	if s.ID() != 0 {
		t.Error("nil span has nonzero ID")
	}
	if s.TraceID() != "" || s.Traceparent() != "" {
		t.Error("nil span has trace identity")
	}
	s.Finish() // must not panic
	if tr.Recent() != nil || tr.Total() != 0 {
		t.Error("nil tracer reports spans")
	}
	if tr.StartChild("c", nil) != nil || tr.StartRemote("r", "") != nil {
		t.Error("nil tracer returned a span")
	}
	tr.SetClock(nil)
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start("client.get")
	h := sp.Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q not W3C-shaped", h)
	}
	trace, parent, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", h)
	}
	if trace != sp.TraceID() {
		t.Errorf("trace = %q, want %q", trace, sp.TraceID())
	}
	if parent != sp.ID() {
		t.Errorf("parent = %d, want %d", parent, sp.ID())
	}
	sp.Finish()

	// A second tracer (standing in for another process) continues it.
	tr2 := NewTracer(8)
	remote := tr2.StartRemote("server.request", h)
	if remote.TraceID() != sp.TraceID() {
		t.Errorf("remote trace %q, want %q", remote.TraceID(), sp.TraceID())
	}
	remote.Finish()
	if got := tr2.Recent()[0].Parent; got != sp.ID() {
		t.Errorf("remote parent %d, want %d", got, sp.ID())
	}
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"not-a-header",
		"00-zz-ff-01",
		"00-0123456789abcdef0123456789abcdef-00000000000000ZZ-01", // bad span hex
		"00-00000000000000000000000000000000-0000000000000001-01", // zero trace
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span
		"00-0123456789ABCDEF0123456789ABCDEF-0000000000000001-01", // uppercase
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted garbage", h)
		}
	}
	// And a remote start on garbage degrades to a fresh root.
	tr := NewTracer(4)
	sp := tr.StartRemote("req", "garbage")
	if sp.TraceID() == "" || sp.rec.parent != 0 {
		t.Errorf("StartRemote on garbage: trace=%q parent=%d", sp.TraceID(), sp.rec.parent)
	}
	sp.Finish()
}

// splitTraceparent is ParseTraceparent as it was written over
// strings.Split: the reference the in-place parser is held to.
func splitTraceparent(h string) (traceID string, parent SpanID, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", 0, false
	}
	var id uint64
	for _, c := range []byte(parts[2]) {
		var v byte
		switch {
		case c >= '0' && c <= '9':
			v = c - '0'
		case c >= 'a' && c <= 'f':
			v = c - 'a' + 10
		default:
			return "", 0, false
		}
		id = id<<4 | uint64(v)
	}
	allZero := true
	for _, c := range []byte(parts[1]) {
		if c != '0' {
			allZero = false
		}
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", 0, false
		}
	}
	if allZero || id == 0 {
		return "", 0, false
	}
	return parts[1], SpanID(id), true
}

func FuzzParseTraceparent(f *testing.F) {
	const trace, span = "0123456789abcdef0123456789abcdef", "00f067aa0ba902b7"
	for _, h := range []string{"", "garbage", "00-" + trace + "-" + span + "-01",
		"00-" + trace + "-" + span + "-", "00-" + trace + "-" + span, // empty and missing flags
		"cc-" + trace + "-" + span + "-01-extra-fields", "zz-" + trace + "-" + span + "-01",
		"0-" + trace + "-" + span + "-01", "000-" + trace + "-" + span + "-01", "--" + trace + "-" + span + "-01",
		"00-" + strings.ToUpper(trace) + "-" + span + "-01", "00-" + trace + "-" + strings.ToUpper(span) + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + span + "-01", "00-" + trace + "-" + strings.Repeat("0", 16) + "-01",
		" \t00-" + trace + "-" + span + "-01\r\n", "\u00a000-" + trace + "-" + span + "-01\u2003",
		"00-" + trace[:31] + "-" + span + "-01", "00-" + trace + "0-" + span + "-01",
		"00-" + trace + "-" + span + "0-01", "00-" + trace[:16] + "-" + trace[16:] + "-" + span + "-01",
		"00_" + trace + "_" + span + "_01", "00-" + trace + "-" + span + "x01"} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		trace, parent, ok := ParseTraceparent(h)
		wantTrace, wantParent, wantOK := splitTraceparent(h)
		if trace != wantTrace || parent != wantParent || ok != wantOK {
			t.Fatalf("ParseTraceparent(%q) = %q, %x, %v; over strings.Split it was %q, %x, %v",
				h, trace, parent, ok, wantTrace, wantParent, wantOK)
		}
		if !ok {
			return
		}
		// What StartRemote continues and sends on is what came in.
		sp := NewTracer(1).StartRemote("hop", h)
		if sp.TraceID() != wantTrace || sp.rec.parent != wantParent {
			t.Fatalf("StartRemote(%q) continued %q under %x", h, sp.TraceID(), sp.rec.parent)
		}
		if next, _, ok := splitTraceparent(sp.Traceparent()); !ok || next != wantTrace {
			t.Fatalf("Traceparent() = %q does not carry trace %q", sp.Traceparent(), wantTrace)
		}
	})
}

// TestSetAttrAfterFinishDoesNotReachRing: Finish copies the record, so the
// span and its ring slot share nothing a later SetAttr could write while a
// reader renders the ring (run under -race: with the attribute map shared,
// as it once was, this is a map write during a map read).
func TestSetAttrAfterFinishDoesNotReachRing(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("request")
	sp.SetAttr("path", "/a")
	sp.Finish()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			rec := httptest.NewRecorder()
			tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
		}
	}()
	for i := 0; i < 200; i++ {
		sp.SetAttr("path", "/late")
		sp.SetAttr("late", "yes")
	}
	wg.Wait()

	spans := tr.Recent()
	if len(spans) != 1 || len(spans[0].Attrs) != 1 || spans[0].Attrs["path"] != "/a" {
		t.Errorf("ring holds %+v, want the span as it was at Finish", spans)
	}
	if sp.ID() != spans[0].ID || sp.TraceID() != spans[0].Trace {
		t.Errorf("span no longer readable after Finish: id %d trace %q", sp.ID(), sp.TraceID())
	}
}

// TestSetAttrOverflowIsCounted: a span holds inlineAttrs distinct keys.
// Replacing a held key always works; a key that finds no room is counted,
// and the count shows when the span is read.
func TestSetAttrOverflowIsCounted(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("wide")
	for i := 0; i < inlineAttrs; i++ {
		sp.SetAttr("k"+strconv.Itoa(i), "v")
	}
	sp.SetAttr("k0", "replaced") // held: replaced in place, nothing dropped
	sp.Finish()
	sp = tr.Start("too-wide")
	for i := 0; i < inlineAttrs+3; i++ {
		sp.SetAttr("k"+strconv.Itoa(i), "v")
	}
	sp.Finish()

	spans := tr.Recent()
	if got := spans[0].Attrs; len(got) != inlineAttrs || got["k0"] != "replaced" || got[droppedAttrsKey] != "" {
		t.Errorf("full span: %v", got)
	}
	got := spans[1].Attrs
	if len(got) != inlineAttrs+1 || got[droppedAttrsKey] != "3" {
		t.Errorf("overflowing span: %v, want %d attributes and %s=3", got, inlineAttrs, droppedAttrsKey)
	}
	for i := 0; i < inlineAttrs; i++ {
		if got["k"+strconv.Itoa(i)] != "v" {
			t.Errorf("overflow displaced held attribute k%d: %v", i, got)
		}
	}
}

func TestTraceFilterAndTree(t *testing.T) {
	tr := NewTracer(16)
	a := tr.Start("request.a")
	ac := tr.StartChild("speculate", a)
	ac.Finish()
	a.Finish()
	b := tr.Start("request.b")
	b.Finish()

	got := tr.Trace(a.TraceID())
	if len(got) != 2 {
		t.Fatalf("Trace(a) = %d spans, want 2", len(got))
	}
	for _, s := range got {
		if s.Trace != a.TraceID() {
			t.Errorf("span %q has trace %q", s.Name, s.Trace)
		}
	}

	for _, unknown := range []string{strings.Repeat("f", 32), "not-a-trace-id"} {
		if got := tr.Trace(unknown); got != nil {
			t.Errorf("Trace(%q) = %v, want nil", unknown, got)
		}
	}

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec,
		httptest.NewRequest("GET", "/debug/spans?trace="+a.TraceID(), nil))
	var out spansPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Trace != a.TraceID() || len(out.Spans) != 2 {
		t.Fatalf("filtered payload: trace=%q spans=%d", out.Trace, len(out.Spans))
	}
	if len(out.Tree) != 1 {
		t.Fatalf("tree has %d roots, want 1", len(out.Tree))
	}
	root := out.Tree[0]
	if root.Name != "request.a" || len(root.Children) != 1 || root.Children[0].Name != "speculate" {
		t.Errorf("tree %+v", root)
	}
}

func TestBuildTreeOrphansBecomeRoots(t *testing.T) {
	// A child whose parent was overwritten in the ring must still render.
	spans := []Span{
		{Trace: "t", ID: 5, Parent: 99, Name: "orphan", Start: time.Unix(10, 0)},
		{Trace: "t", ID: 6, Parent: 0, Name: "root", Start: time.Unix(5, 0)},
		{Trace: "t", ID: 7, Parent: 6, Name: "kid", Start: time.Unix(6, 0)},
	}
	roots := BuildTree(spans)
	if len(roots) != 2 {
		t.Fatalf("%d roots, want 2", len(roots))
	}
	// Ordered by start time: root (t=5) before orphan (t=10).
	if roots[0].Name != "root" || roots[1].Name != "orphan" {
		t.Errorf("root order: %q, %q", roots[0].Name, roots[1].Name)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "kid" {
		t.Errorf("children %+v", roots[0].Children)
	}
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(4)
	tr.Start("one").Finish()
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	var out struct {
		Total uint64 `json:"total"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Total != 1 || len(out.Spans) != 1 || out.Spans[0].Name != "one" {
		t.Errorf("handler output %+v", out)
	}
}

// TestSpansHandlerGolden pins the /debug/spans wire format (the document
// CI uploads as an artifact): the ring is populated with fixed spans so
// the rendered JSON is byte-stable.
func TestSpansHandlerGolden(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := NewTracer(8)
	trace := traceID{hi: 0x0123456789abcdef, lo: 0x0123456789abcdef}
	fixed := []record{
		{trace: trace, id: 0x10, name: "client.get",
			start: t0, dur: 5 * time.Millisecond,
			attrs: [inlineAttrs]attr{{"doc", "/index.html"}}, nattrs: 1},
		{trace: trace, id: 0x11, parent: 0x10,
			name: "server.request", start: t0.Add(time.Millisecond),
			dur: 3 * time.Millisecond},
		{trace: trace, id: 0x12, parent: 0x11,
			name: "server.speculate", start: t0.Add(2 * time.Millisecond),
			dur: time.Millisecond},
	}
	tr.head = copy(tr.ring, fixed)
	tr.total = uint64(len(fixed))

	for name, url := range map[string]string{
		"spans_golden.json":       "/debug/spans",
		"spans_trace_golden.json": "/debug/spans?trace=0123456789abcdef0123456789abcdef",
	} {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if got := rec.Body.String(); got != string(want) {
			t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s",
				url, got, want)
		}
	}
}

func TestLoggerTagsComponent(t *testing.T) {
	var b strings.Builder
	logMu.RLock()
	old := logBase
	logMu.RUnlock()
	SetLogger(slog.New(slog.NewTextHandler(&b, nil)))
	defer SetLogger(old)
	Logger("server").Info("hello", "n", 1)
	got := b.String()
	if !strings.Contains(got, "component=server") || !strings.Contains(got, "msg=hello") {
		t.Errorf("log line %q", got)
	}
}
