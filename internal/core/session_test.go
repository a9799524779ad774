package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"specweb/internal/checkpoint"
	"specweb/internal/estguard"
	"specweb/internal/obs"
	"specweb/internal/speculation"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// sessionEngine is an engine warm started so that documents 2 to 6 follow
// document 1, each with probability 0.9: push mode pushes all five.
func sessionEngine(t *testing.T, guard *estguard.Guard) *Engine {
	t.Helper()
	cfg := DefaultEngineConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Guard = guard
	e := newTestEngine(t, cfg)
	row := checkpoint.Row{Doc: 1}
	for d := int32(2); d <= 6; d++ {
		row.Succ = append(row.Succ, checkpoint.Succ{Doc: d, PBits: math.Float64bits(0.9)})
	}
	snap := &checkpoint.Snapshot{Knobs: checkpoint.Knobs{Tp: 0.25, Embed: 0.95}, Rows: []checkpoint.Row{row}}
	if err := e.WarmStart(snap, t0); err != nil {
		t.Fatal(err)
	}
	return e
}

func docIDs(ids ...webgraph.DocID) []webgraph.DocID { return ids }

// pushed is what a push-mode decision for document 1 sends in session token.
func pushed(e *Engine, client trace.ClientID, token uint64) []webgraph.DocID {
	d := AcquireDecision()
	defer ReleaseDecision(d)
	e.SessionInto(d, speculation.ModePush, 1, client, token)
	return slices.Clone(d.Push)
}

// Sent keeps what the set did not hold yet and enters all of it; a decision
// in the session leaves out what the set holds; another token is another
// session, and the set starts afresh.
func TestSessionSetExcludesWhatWasSent(t *testing.T) {
	e := sessionEngine(t, nil)
	if got := pushed(e, "c", 7); !slices.Equal(got, docIDs(2, 3, 4, 5, 6)) {
		t.Fatalf("fresh session pushes %v", got)
	}
	if fresh := e.Sent("c", 7, t0, docIDs(1, 3, 5)); !slices.Equal(fresh, docIDs(1, 3, 5)) {
		t.Errorf("first Sent kept %v, want all three", fresh)
	}
	if fresh := e.Sent("c", 7, t0, docIDs(5, 1, 2)); !slices.Equal(fresh, docIDs(2)) {
		t.Errorf("second Sent kept %v, want the one not sent before", fresh)
	}
	for doc, want := range map[webgraph.DocID]bool{1: true, 2: true, 3: true, 4: false, 5: true, 6: false} {
		if got := e.Held("c", 7, doc); got != want {
			t.Errorf("Held(%d) = %v, want %v", doc, got, want)
		}
	}
	if got := pushed(e, "c", 7); !slices.Equal(got, docIDs(4, 6)) {
		t.Errorf("the session is pushed %v, want what it was not sent", got)
	}
	if got := pushed(e, "c", 0); len(got) != 5 {
		t.Errorf("no session: pushed %v, want all five", got)
	}
	if got := pushed(e, "other", 7); len(got) != 5 {
		t.Errorf("another client under the same token is pushed %v, want all five", got)
	}
	if fresh := e.Sent("c", 0, t0, docIDs(4)); len(fresh) != 1 || e.Held("c", 0, 4) {
		t.Errorf("token 0 noted a delivery")
	}

	// A new token resets the set.
	if got := pushed(e, "c", 8); len(got) != 5 {
		t.Errorf("a new session is pushed %v, want all five", got)
	}
	if fresh := e.Sent("c", 8, t0, docIDs(3)); len(fresh) != 1 {
		t.Errorf("a new session's first Sent kept %v", fresh)
	}
	if e.Held("c", 7, 3) || e.Held("c", 8, 2) || !e.Held("c", 8, 3) {
		t.Error("the old session's set survived the new token")
	}
	if got := pushed(e, "c", 7); len(got) != 5 {
		t.Errorf("the old token, now stale, is pushed %v, want all five", got)
	}
	// Three candidates struck once; a session decision reads no digest.
	if s, d := e.met.sessionHeld.Value(), e.met.digestSuppressed.Value(); s != 3 || d != 0 {
		t.Errorf("session_suppressed %v, digest_suppressed %v; want 3 and 0", s, d)
	}
}

// A quarantined client is never speculated to, so it keeps no set; the set
// of a client quarantined after it was built goes at the next refresh, and
// so does a set nothing went to for longer than RefreshEvery.
func TestSessionSetMemoryRules(t *testing.T) {
	g := estguard.New(estguard.Config{Seed: 1, MinRequests: 1 << 20, DriftThreshold: 100, Metrics: obs.NewRegistry()})
	e := sessionEngine(t, g)
	g.ImportClients([]estguard.ClientSummary{{ID: "crawler", Status: estguard.Quarantined, Reason: estguard.ReasonCrawler, Windows: 1}})
	if fresh := e.Sent("crawler", 3, t0, docIDs(2, 3)); len(fresh) != 2 {
		t.Errorf("a quarantined client's Sent kept %v", fresh)
	}
	e.Sent("idle", 3, t0, docIDs(2))
	e.Sent("busy", 3, t0.Add(20*time.Hour), docIDs(2))
	e.Sent("later", 3, t0.Add(20*time.Hour), docIDs(2))
	if n := sessionSets(e); n != 3 {
		t.Fatalf("%d sets, want idle, busy and later's", n)
	}
	g.ImportClients([]estguard.ClientSummary{{ID: "later", Status: estguard.Quarantined, Reason: estguard.ReasonCrawler, Windows: 1}})
	e.Refresh(t0.Add(25 * time.Hour))
	if n := sessionSets(e); n != 1 || !e.Held("busy", 3, 2) {
		t.Errorf("%d sets after the refresh, want busy's alone", n)
	}
}

func sessionSets(e *Engine) (n int) {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += len(sh.sent)
		sh.mu.Unlock()
	}
	return n
}

// One client with requests in flight at once — decisions, deliveries,
// accesses, offers and their reports — beside refreshes: run under -race.
// Whatever the interleaving, every document some request sent is in the set
// at the end.
func TestSessionSetConcurrentRequests(t *testing.T) {
	e := sessionEngine(t, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := AcquireDecision()
			defer ReleaseDecision(d)
			for k := 0; k < 200; k++ {
				at := t0.Add(time.Duration(k) * time.Millisecond)
				doc := webgraph.DocID(2 + (w+k)%5)
				e.Record("c", 1, at)
				e.SessionInto(d, speculation.ModeHybrid, 1, "c", 9)
				e.Offer("c", doc, at, 500)
				e.Sent("c", 9, at, append(docIDs(1), d.Push...))
				e.Sent("c", 9, at, docIDs(doc))
				e.Settle("c", doc, k%2 == 0)
				if k%50 == 0 {
					e.Refresh(at)
				}
			}
		}()
	}
	wg.Wait()
	for doc := webgraph.DocID(1); doc <= 6; doc++ {
		if !e.Held("c", 9, doc) {
			t.Errorf("document %d was sent and is not held", doc)
		}
	}
	if got := pushed(e, "c", 9); len(got) != 0 {
		t.Errorf("after everything was sent the session is pushed %v", got)
	}
}

// TestSessionSetMemory states what a session set keeps on the heap: 113 B
// for a client sent one document (its map entry, 40 bytes beside the ID the
// map shares with the caller, with the map's slack, and the document), 233
// B for one sent twenty (4 bytes a document, and the slice's growth slack).
func TestSessionSetMemory(t *testing.T) {
	for _, tc := range []struct {
		clients, docs int
		ceiling       float64 // bytes per client
	}{
		{20000, 1, 128},
		{20000, 20, 256},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.clients, tc.docs), func(t *testing.T) {
			ids := make([]trace.ClientID, tc.clients)
			for c := range ids {
				ids[c] = trace.ClientID(fmt.Sprintf("10.%d.%d.%d", c>>16, c>>8&255, c&255))
			}
			e := newTestEngine(t, DefaultEngineConfig())
			var one [1]webgraph.DocID
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			for k := 0; k < tc.docs; k++ {
				for c, id := range ids {
					one[0] = webgraph.DocID((c + 7*k) % 700)
					e.Sent(id, 1, t0, one[:])
				}
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			perClient := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(tc.clients)
			runtime.KeepAlive(ids)
			if n := sessionSets(e); n != tc.clients {
				t.Fatalf("%d sets, want %d", n, tc.clients)
			}
			t.Logf("%.1f B per client holding %d documents", perClient, tc.docs)
			if perClient > tc.ceiling {
				t.Errorf("%.1f B per client, ceiling %v", perClient, tc.ceiling)
			}
		})
	}
}
