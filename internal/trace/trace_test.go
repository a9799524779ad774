package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"specweb/internal/webgraph"
)

var t0 = time.Date(1995, time.January, 9, 12, 0, 0, 0, time.UTC)

func req(client string, offset time.Duration, doc webgraph.DocID, size int64) Request {
	return Request{
		Time:   t0.Add(offset),
		Client: ClientID(client),
		Doc:    doc,
		Size:   size,
		Path:   "/x",
	}
}

func TestSpanAndLen(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("a", 0, 1, 100),
		req("a", time.Minute, 2, 200),
	}}
	first, last, ok := tr.Span()
	if !ok || !first.Equal(t0) || !last.Equal(t0.Add(time.Minute)) {
		t.Errorf("Span = %v %v %v", first, last, ok)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	var empty Trace
	if _, _, ok := empty.Span(); ok {
		t.Error("empty trace Span ok")
	}
}

func TestSortAndValidate(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("a", time.Minute, 1, 10),
		req("b", 0, 2, 20),
	}}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-order trace validated")
	}
	tr.SortByTime()
	if err := tr.Validate(); err != nil {
		t.Errorf("sorted trace failed validation: %v", err)
	}
	if tr.Requests[0].Client != "b" {
		t.Error("sort did not reorder")
	}

	bad := &Trace{Requests: []Request{{Time: t0, Client: "a", Size: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative size validated")
	}
	bad2 := &Trace{Requests: []Request{{Time: t0, Size: 1}}}
	if err := bad2.Validate(); err == nil {
		t.Error("empty client validated")
	}
}

func TestClientsOrderAndByClient(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("b", 0, 1, 1),
		req("a", time.Second, 2, 1),
		req("b", 2*time.Second, 3, 1),
	}}
	cs := tr.Clients()
	if len(cs) != 2 || cs[0] != "b" || cs[1] != "a" {
		t.Errorf("Clients = %v", cs)
	}
	m := tr.ByClient()
	if len(m["b"]) != 2 || len(m["a"]) != 1 {
		t.Errorf("ByClient sizes wrong: %v", m)
	}
	if m["b"][0].Doc != 1 || m["b"][1].Doc != 3 {
		t.Error("ByClient lost chronological order")
	}
}

func TestTotalsAndRemoteFraction(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Time: t0, Client: "r", Size: 100, Remote: true},
		{Time: t0, Client: "l", Size: 300, Remote: false},
	}}
	if tr.TotalBytes() != 400 {
		t.Errorf("TotalBytes = %d", tr.TotalBytes())
	}
	if tr.RemoteFraction() != 0.5 {
		t.Errorf("RemoteFraction = %v", tr.RemoteFraction())
	}
	var empty Trace
	if empty.RemoteFraction() != 0 {
		t.Error("empty RemoteFraction should be 0")
	}
}

func TestWindow(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Requests = append(tr.Requests, req("c", time.Duration(i)*time.Hour, webgraph.DocID(i), 1))
	}
	w := tr.Window(t0.Add(2*time.Hour), t0.Add(5*time.Hour))
	if w.Len() != 3 || w.Requests[0].Doc != 2 || w.Requests[2].Doc != 4 {
		t.Errorf("Window returned docs %v", w.Requests)
	}
	if tr.Window(t0.Add(100*time.Hour), t0.Add(200*time.Hour)).Len() != 0 {
		t.Error("out-of-range window not empty")
	}
}

func TestSegment(t *testing.T) {
	reqs := []Request{
		req("c", 0, 0, 1),
		req("c", 2*time.Second, 1, 1),
		req("c", 10*time.Second, 2, 1),
		req("c", 11*time.Second, 3, 1),
	}
	segs := Segment(reqs, 5*time.Second)
	if len(segs) != 2 || len(segs[0]) != 2 || len(segs[1]) != 2 {
		t.Fatalf("segments = %v", segs)
	}
	// Exactly-at-timeout gaps split (strictly less than).
	segs = Segment(reqs[:2], 2*time.Second)
	if len(segs) != 2 {
		t.Errorf("gap == timeout should split, got %d segments", len(segs))
	}
	if Segment(nil, time.Second) != nil {
		t.Error("empty input should give nil")
	}
	// Non-positive timeout: one segment per request.
	segs = Segment(reqs, 0)
	if len(segs) != 4 {
		t.Errorf("zero timeout gave %d segments, want 4", len(segs))
	}
}

func TestStridesPerClient(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("a", 0, 0, 1),
		req("b", time.Second, 1, 1),
		req("a", 2*time.Second, 2, 1),
		req("a", time.Minute, 3, 1),
	}}
	tr.SortByTime()
	strides := tr.Strides(5 * time.Second)
	// a: [0,2] then [3]; b: [1] → 3 strides.
	if len(strides) != 3 {
		t.Fatalf("got %d strides, want 3", len(strides))
	}
	if strides[0].Client != "a" || len(strides[0].Requests) != 2 {
		t.Errorf("first stride = %+v", strides[0])
	}
}

func TestSessions(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("a", 0, 0, 1),
		req("a", 30*time.Minute, 1, 1),
		req("a", 200*time.Minute, 2, 1),
	}}
	sessions := tr.Sessions(60 * time.Minute)
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(sessions))
	}
	// Infinite-session emulation: timeout longer than the trace span.
	sessions = tr.Sessions(1000 * time.Hour)
	if len(sessions) != 1 {
		t.Errorf("infinite timeout gave %d sessions, want 1", len(sessions))
	}
	// Cache-less emulation.
	sessions = tr.Sessions(0)
	if len(sessions) != 3 {
		t.Errorf("zero timeout gave %d sessions, want 3", len(sessions))
	}
}

func TestClone(t *testing.T) {
	tr := &Trace{Requests: []Request{req("a", 0, 0, 1)}}
	c := tr.Clone()
	c.Requests[0].Size = 99
	if tr.Requests[0].Size == 99 {
		t.Error("Clone shares backing storage")
	}
}

// Property: segmentation is a partition — concatenating the segments in
// order reproduces the input, and no segment is empty.
func TestSegmentPartitionProperty(t *testing.T) {
	f := func(gapsRaw []uint16, timeoutRaw uint16) bool {
		timeout := time.Duration(timeoutRaw%100) * time.Second
		var reqs []Request
		at := time.Duration(0)
		for i, g := range gapsRaw {
			at += time.Duration(g%200) * time.Second
			reqs = append(reqs, req("c", at, webgraph.DocID(i), 1))
		}
		segs := Segment(reqs, timeout)
		var flat []Request
		for _, s := range segs {
			if len(s) == 0 {
				return false
			}
			// Within a segment all gaps are < timeout (when positive).
			for i := 1; i < len(s); i++ {
				if timeout > 0 && s[i].Time.Sub(s[i-1].Time) >= timeout {
					return false
				}
			}
			flat = append(flat, s...)
		}
		if len(flat) != len(reqs) {
			return false
		}
		for i := range flat {
			if flat[i].Doc != reqs[i].Doc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: preprocessing conserves requests — every input request is
// either kept or counted in exactly one dropped/renamed bucket.
func TestPreprocessConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		resolve := func(p string) (webgraph.DocID, bool) {
			if p == "/ok" || p == "/canon" {
				return 1, true
			}
			return webgraph.None, false
		}
		tr := &Trace{}
		for _, op := range ops {
			r := Request{Time: t0, Client: "c", Doc: webgraph.None}
			switch op % 5 {
			case 0:
				r.Path, r.Status = "/ok", 200
			case 1:
				r.Path, r.Status = "/cgi-bin/x", 200
			case 2:
				r.Path, r.Status = "/gone", 200
			case 3:
				r.Path, r.Status = "/ok", 404
			default:
				r.Path, r.Status = "/alias", 200
			}
			tr.Requests = append(tr.Requests, r)
		}
		opts := DefaultPreprocess()
		opts.Aliases = map[string]string{"/alias": "/canon"}
		out, st := Preprocess(tr, opts, resolve)
		if st.In != len(tr.Requests) || st.Kept != out.Len() {
			return false
		}
		return st.In == st.Kept+st.DroppedStatus+st.DroppedScripts+st.DroppedMissing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestWindowEmptyTrace(t *testing.T) {
	var tr Trace
	if w := tr.Window(t0, t0.Add(time.Hour)); w.Len() != 0 {
		t.Error("window of empty trace not empty")
	}
}

// SortByTime's merge of key runs must order exactly as the stable sort of
// the requests themselves does: on run-shaped input, on shuffled input, on
// ties, on input already in order, and on a span too wide for its keys.
func TestSortByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := time.Date(1995, time.May, 1, 0, 0, 0, 0, time.UTC)
	inputs := map[string][]Request{"empty": nil, "one": {{Time: base}}}
	var runs, shuffled, ordered []Request
	for r := 0; r < 40; r++ {
		at := base.Add(time.Duration(rng.Intn(3600)) * time.Second)
		for k := 0; k < 1+rng.Intn(12); k++ {
			at = at.Add(time.Duration(rng.Intn(3)) * time.Second) // 0 s steps make ties
			runs = append(runs, Request{Time: at})
		}
	}
	for k := 0; k < 300; k++ {
		shuffled = append(shuffled, Request{Time: base.Add(time.Duration(rng.Intn(100)) * time.Second)})
		ordered = append(ordered, Request{Time: base.Add(time.Duration(k/2) * time.Second)})
	}
	inputs["runs"], inputs["shuffled"], inputs["ordered"] = runs, shuffled, ordered
	inputs["wide"] = []Request{{Time: base}, {}, {Time: base.Add(-time.Hour)}, {}, {Time: base.Add(time.Hour)}}
	for name, in := range inputs {
		for i := range in {
			in[i].Size = int64(i) // tells equal times apart
		}
		want := append([]Request(nil), in...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
		tr := &Trace{Requests: append([]Request(nil), in...)}
		tr.SortByTime()
		if !reflect.DeepEqual(tr.Requests, want) {
			t.Errorf("%s: SortByTime differs from the stable sort", name)
		}
	}
}

// BenchmarkSortRequests sorts two shapes: a generated trace (thousands of
// short session runs laid end to end) and a few long runs covering the
// same span, as a concatenation of per-worker logs has.
func BenchmarkSortRequests(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := time.Date(1995, time.May, 1, 0, 0, 0, 0, time.UTC)
	var sessions, shards []Request
	for r := 0; r < 6600; r++ {
		at := base.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		for k := 0; k < 9; k++ {
			at = at.Add(time.Duration(rng.Intn(20)) * time.Second)
			sessions = append(sessions, Request{Time: at, Client: "c"})
		}
	}
	runs := make([][]Request, 4)
	at := base
	for k := 0; k < 2000; k++ {
		at = at.Add(time.Duration(rng.Intn(40)) * time.Second)
		s := rng.Intn(len(runs))
		runs[s] = append(runs[s], Request{Time: at, Client: "c"})
	}
	for _, r := range runs {
		shards = append(shards, r...)
	}
	for _, tc := range []struct {
		name string
		in   []Request
	}{{"sessions", sessions}, {"shards", shards}} {
		b.Run(tc.name, func(b *testing.B) {
			buf := make([]Request, len(tc.in))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, tc.in)
				SortRequests(buf)
			}
			b.ReportMetric(float64(len(tc.in)), "requests")
		})
	}
}
