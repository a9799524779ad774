package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// TestIngestionMemory holds what a buffered request keeps on the heap until
// the refresh that folds it: a 16-byte (time, document) entry in its
// client's log, plus the client's share of the log's slack and map entry.
// Many requests per client make the entry the cost; one request per client
// makes the map entry the cost. `make bench-memory` runs it.
func TestIngestionMemory(t *testing.T) {
	for _, tc := range []struct {
		clients, each int
		ceiling       float64 // bytes retained per buffered request
	}{
		{1000, 200, 24},
		{100000, 1, 88},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.clients, tc.each), func(t *testing.T) {
			ids := make([]trace.ClientID, tc.clients)
			for c := range ids {
				ids[c] = trace.ClientID(fmt.Sprintf("10.%d.%d.%d", c>>16, c>>8&255, c&255))
			}
			e, err := NewEngine(DefaultEngineConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			at := t0
			for k := 0; k < tc.each; k++ {
				for _, c := range ids {
					e.Record(c, webgraph.DocID(k%500), at)
					at = at.Add(time.Millisecond)
				}
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			n := tc.clients * tc.each
			perReq := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
			runtime.KeepAlive(ids)
			if got := e.Stats().Recorded; got != int64(n) {
				t.Fatalf("recorded %d, want %d", got, n)
			}
			t.Logf("%.1f B retained per buffered request", perReq)
			if perReq > tc.ceiling {
				t.Errorf("%.1f B retained per buffered request, ceiling %v", perReq, tc.ceiling)
			}
		})
	}
}

// Record, Settle and Refresh never ask the store for a size: nothing
// downstream of the log reads one, and a snapshot holds no sizes. A
// decision asks only while MaxSize is set, and then once per candidate of
// the cut.
func TestNoSizeLookupsOnTheRecordPath(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 1
	cfg.Tp = 0
	calls := 0
	e, err := NewEngine(cfg, func(webgraph.DocID) (int64, bool) {
		calls++
		return 100, true
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		at := t0.Add(time.Duration(k) * time.Minute)
		e.Record("c", 1, at)
		e.Record("c", 2, at.Add(time.Second))
		e.Offer("c", 3, at.Add(time.Second), 500)
		e.Settle("c", 3, k%2 == 0)
	}
	e.Refresh(t0.Add(time.Hour))
	if calls != 0 {
		t.Fatalf("Record, Settle and Refresh made %d size lookups, want none", calls)
	}
	cut := len(e.snap.Load().frozen.ThresholdRow(1, 0))
	if cut == 0 {
		t.Fatal("the refresh published no successors of doc 1")
	}
	d := AcquireDecision()
	defer ReleaseDecision(d)
	e.HintsInto(d, 1, nil)
	if calls != 0 {
		t.Errorf("a decision with MaxSize 0 made %d size lookups, want none", calls)
	}
	if err := e.SetLimits(1000, 0); err != nil {
		t.Fatal(err)
	}
	e.HintsInto(d, 1, nil)
	if calls != cut {
		t.Errorf("a decision with MaxSize set made %d size lookups, want one per candidate of the cut (%d)", calls, cut)
	}
}
