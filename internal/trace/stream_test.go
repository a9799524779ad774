package trace

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func mkReq(c ClientID, at int64, path string) Request {
	return Request{Time: time.Unix(0, at), Client: c, Path: path, Status: 200, Size: 1}
}

// cursorFixture builds three overlapping client streams with cross-client
// timestamp ties, the case the canonical (time, client) order must break
// deterministically.
func cursorFixture() []ClientCursor {
	return []ClientCursor{
		&SliceCursor{ID: "b.local", Reqs: []Request{
			mkReq("b.local", 10, "/b0"), mkReq("b.local", 20, "/b1"), mkReq("b.local", 20, "/b2"),
		}},
		&SliceCursor{ID: "a.local", Reqs: []Request{
			mkReq("a.local", 10, "/a0"), mkReq("a.local", 30, "/a1"),
		}},
		&SliceCursor{ID: "c.local", Reqs: []Request{
			mkReq("c.local", 5, "/c0"),
		}},
	}
}

// TestMergeCursorsCanonicalOrder pins the total order: ascending time,
// ClientID tiebreak, per-client generation order within ties.
func TestMergeCursorsCanonicalOrder(t *testing.T) {
	got := Materialize(MergeCursors(cursorFixture()))
	want := []string{"/c0", "/a0", "/b0", "/b1", "/b2", "/a1"}
	if got.Len() != len(want) {
		t.Fatalf("merged %d requests, want %d", got.Len(), len(want))
	}
	for i, p := range want {
		if got.Requests[i].Path != p {
			t.Errorf("position %d: got %s, want %s", i, got.Requests[i].Path, p)
		}
	}
	if err := got.Validate(); err != nil {
		t.Errorf("merged trace invalid: %v", err)
	}
}

// TestMergeSubsetRestriction is the shard-identity property in
// miniature: merging any subset of cursors yields exactly the full
// merge restricted to those clients, so the canonical order never
// depends on which other shards exist.
func TestMergeSubsetRestriction(t *testing.T) {
	full := Materialize(MergeCursors(cursorFixture()))
	for _, keep := range []map[ClientID]bool{
		{"a.local": true},
		{"a.local": true, "c.local": true},
		{"b.local": true, "c.local": true},
	} {
		var cs []ClientCursor
		for _, c := range cursorFixture() {
			if keep[c.Client()] {
				cs = append(cs, c)
			}
		}
		sub := Materialize(MergeCursors(cs))
		var want []Request
		for _, r := range full.Requests {
			if keep[r.Client] {
				want = append(want, r)
			}
		}
		if len(sub.Requests) != len(want) {
			t.Fatalf("keep=%v: %d requests, want %d", keep, len(sub.Requests), len(want))
		}
		for i := range want {
			if sub.Requests[i] != want[i] {
				t.Errorf("keep=%v position %d: got %+v, want %+v", keep, i, sub.Requests[i], want[i])
			}
		}
	}
}

// TestCountStream checks the sizing pass: request count plus distinct
// clients in first-appearance order, nothing retained.
func TestCountStream(t *testing.T) {
	n, clients, first := CountStream(MergeCursors(cursorFixture()))
	if n != 6 {
		t.Errorf("count = %d, want 6", n)
	}
	if want := Materialize(MergeCursors(cursorFixture())).Requests[0].Time; !first.Equal(want) {
		t.Errorf("first timestamp = %v, want %v", first, want)
	}
	want := []ClientID{"c.local", "a.local", "b.local"}
	if len(clients) != len(want) {
		t.Fatalf("clients = %v, want %v", clients, want)
	}
	for i := range want {
		if clients[i] != want[i] {
			t.Errorf("client %d = %s, want %s", i, clients[i], want[i])
		}
	}
}

// TestWriteCLFStreamByteIdentity is satellite S1's contract: streaming
// rows out as they are generated produces the byte-identical file the
// buffered writer produces from the materialized trace.
func TestWriteCLFStreamByteIdentity(t *testing.T) {
	tr := Materialize(MergeCursors(cursorFixture()))
	var buffered bytes.Buffer
	if err := WriteCLF(&buffered, tr); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	n, err := WriteCLFStream(&streamed, MergeCursors(cursorFixture()))
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Errorf("streamed %d rows, want %d", n, tr.Len())
	}
	if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
		t.Errorf("CLF outputs diverged:\n%s\n--- vs ---\n%s", streamed.Bytes(), buffered.Bytes())
	}
}

// TestClientIndexCache pins satellite S6: Clients/ByClient serve a
// cached index (same backing store across calls), and every mutation
// path — append, SortByTime, explicit Invalidate — drops it.
func TestClientIndexCache(t *testing.T) {
	tr := Materialize(MergeCursors(cursorFixture()))
	c1 := tr.Clients()
	c2 := tr.Clients()
	if len(c1) == 0 || &c1[0] != &c2[0] {
		t.Error("Clients() rebuilt instead of serving the cache")
	}
	if len(tr.ByClient()["b.local"]) != 3 {
		t.Errorf("ByClient wrong: %v", tr.ByClient())
	}

	// Append invalidates (length change detected lazily).
	tr.Requests = append(tr.Requests, mkReq("d.local", 99, "/d0"))
	if got := len(tr.Clients()); got != 4 {
		t.Errorf("after append: %d clients, want 4", got)
	}

	// In-place mutation + Invalidate.
	tr.Requests[0].Client = "z.local"
	if tr.Clients()[0] != "c.local" {
		t.Error("index rebuilt without invalidation — cache contract changed")
	}
	tr.Invalidate()
	if tr.Clients()[0] != "z.local" {
		t.Error("Invalidate did not drop the cached index")
	}

	// SortByTime invalidates implicitly.
	tr.SortByTime()
	if tr.Clients()[0] != "z.local" {
		t.Errorf("after sort: first client %s", tr.Clients()[0])
	}
}

// benchTrace builds a trace with many clients for the index benchmarks.
func benchTrace(clients, perClient int) *Trace {
	tr := &Trace{}
	for i := 0; i < perClient; i++ {
		for c := 0; c < clients; c++ {
			id := ClientID(fmt.Sprintf("client-%04d.local", c))
			tr.Requests = append(tr.Requests, mkReq(id, int64(i*clients+c), "/p"))
		}
	}
	return tr
}

// BenchmarkClientsCached measures the S6 win: repeated Clients/ByClient
// calls (the engine-refresh and loadgen-setup pattern) against one
// trace. With the cached index every call after the first is O(1);
// before, each call rescanned and reallocated the whole per-client map.
func BenchmarkClientsCached(b *testing.B) {
	tr := benchTrace(500, 40)
	tr.Clients() // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Clients()) != 500 || len(tr.ByClient()) != 500 {
			b.Fatal("bad index")
		}
	}
}

// BenchmarkClientsRebuild is the same access pattern with the cache
// defeated (Invalidate between calls) — the old cost, for comparison.
func BenchmarkClientsRebuild(b *testing.B) {
	tr := benchTrace(500, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Invalidate()
		if len(tr.Clients()) != 500 || len(tr.ByClient()) != 500 {
			b.Fatal("bad index")
		}
	}
}

// BenchmarkSessions measures the segmentation path that previously
// rescanned the full trace once per client and now walks the cached
// per-client slices.
func BenchmarkSessions(b *testing.B) {
	tr := benchTrace(200, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Invalidate()
		if got := tr.Sessions(time.Hour); len(got) == 0 {
			b.Fatal("no sessions")
		}
	}
}
