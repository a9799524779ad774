package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"specweb/internal/speculation"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

var t0 = time.Date(1995, time.March, 6, 9, 0, 0, 0, time.UTC)

func newTestEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	sizes := map[webgraph.DocID]int64{1: 1000, 2: 2000, 3: 500, 4: 90000}
	e, err := NewEngine(cfg, func(d webgraph.DocID) (int64, bool) {
		s, ok := sizes[d]
		return s, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// speculate, hints and split run one decision through a pooled Decision,
// as a server does, and copy the outcome out before releasing it.
func speculate(e *Engine, doc webgraph.DocID, have map[webgraph.DocID]bool) []webgraph.DocID {
	d := AcquireDecision()
	defer ReleaseDecision(d)
	e.SpeculateInto(d, doc, have)
	return slices.Clone(d.Push)
}

func hints(e *Engine, doc webgraph.DocID, have map[webgraph.DocID]bool) []speculation.Hint {
	d := AcquireDecision()
	defer ReleaseDecision(d)
	e.HintsInto(d, doc, have)
	return slices.Clone(d.Hints)
}

func split(e *Engine, doc webgraph.DocID, have map[webgraph.DocID]bool) ([]webgraph.DocID, []speculation.Hint) {
	d := AcquireDecision()
	defer ReleaseDecision(d)
	e.SplitInto(d, doc, have)
	return slices.Clone(d.Push), slices.Clone(d.Hints)
}

// feedPattern teaches the engine "doc 1 is followed by doc 2" n times.
func feedPattern(e *Engine, n int, extra ...webgraph.DocID) {
	at := t0
	for i := 0; i < n; i++ {
		client := trace.ClientID("c")
		e.Record(client, 1, at)
		e.Record(client, 2, at.Add(time.Second))
		for j, d := range extra {
			e.Record(client, d, at.Add(time.Duration(2+j)*time.Second))
		}
		at = at.Add(time.Hour)
	}
	e.Refresh(at)
}

func TestEngineLearnsDependencies(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	e := newTestEngine(t, cfg)
	if got := speculate(e, 1, nil); len(got) != 0 {
		t.Errorf("untrained engine speculated %v", got)
	}
	feedPattern(e, 20)
	got := speculate(e, 1, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Speculate(1) = %v, want [2]", got)
	}
	if got := speculate(e, 2, nil); len(got) != 0 {
		t.Errorf("Speculate(2) = %v, want none (2 is never followed)", got)
	}
}

func TestEngineCooperativeExclusion(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	e := newTestEngine(t, cfg)
	feedPattern(e, 20)
	got := speculate(e, 1, map[webgraph.DocID]bool{2: true})
	if len(got) != 0 {
		t.Errorf("cooperative exclusion failed: %v", got)
	}
}

func TestEngineMaxSize(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.MaxSize = 10000
	e := newTestEngine(t, cfg)
	feedPattern(e, 20, 4) // doc 4 is 90 KB
	got := speculate(e, 1, nil)
	for _, d := range got {
		if d == 4 {
			t.Error("oversized doc speculated despite MaxSize")
		}
	}
	if len(got) == 0 {
		t.Error("everything filtered out")
	}
}

func TestEngineHintsAndSplit(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.Tp = 0.1
	cfg.EmbedThreshold = 0.9
	e := newTestEngine(t, cfg)
	// 1→2 always; 1→3 half the time.
	at := t0
	for i := 0; i < 40; i++ {
		e.Record("c", 1, at)
		e.Record("c", 2, at.Add(time.Second))
		if i%2 == 0 {
			e.Record("c", 3, at.Add(2*time.Second))
		}
		at = at.Add(time.Hour)
	}
	e.Refresh(at)
	hints := hints(e, 1, nil)
	if len(hints) != 2 {
		t.Fatalf("hints = %v", hints)
	}
	if hints[0].Doc != 2 || hints[0].P < hints[1].P {
		t.Errorf("hints not ordered by probability: %v", hints)
	}
	if hints[0].Size != 2000 {
		t.Errorf("hint size = %d, want 2000", hints[0].Size)
	}
	push, hint := split(e, 1, nil)
	if len(push) != 1 || push[0] != 2 {
		t.Errorf("hybrid push = %v, want [2]", push)
	}
	if len(hint) != 1 || hint[0].Doc != 3 {
		t.Errorf("hybrid hints = %v, want doc 3", hint)
	}
}

func TestEngineAutoRefresh(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.RefreshEvery = time.Minute
	e := newTestEngine(t, cfg)
	at := t0
	for i := 0; i < 30; i++ {
		e.Record("c", 1, at)
		e.Record("c", 2, at.Add(time.Second))
		at = at.Add(2 * time.Minute) // crosses the refresh boundary
	}
	// No manual Refresh: the time-based refresh must have kicked in.
	if got := speculate(e, 1, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("auto-refresh did not learn: %v", got)
	}
	st := e.Stats()
	if st.Recorded != 60 || st.Pairs == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineAgingForgets(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.DecayPerDay = 0.2 // aggressive decay
	cfg.Tp = 0.5
	e := newTestEngine(t, cfg)
	feedPattern(e, 10)
	if got := speculate(e, 1, nil); len(got) != 1 {
		t.Fatalf("not learned: %v", got)
	}
	// New era: doc 1 now followed by doc 3. After several refreshes the
	// old dependency must fade below threshold and the new one dominate.
	at := t0.Add(1000 * time.Hour)
	for day := 0; day < 6; day++ {
		for i := 0; i < 10; i++ {
			e.Record("c", 1, at)
			e.Record("c", 3, at.Add(time.Second))
			at = at.Add(time.Hour)
		}
		e.Refresh(at)
	}
	got := speculate(e, 1, nil)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("aging failed to shift dependency: %v", got)
	}
}

func TestEngineTopK(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.TopK = 1
	cfg.Tp = 0
	e := newTestEngine(t, cfg)
	feedPattern(e, 20, 3)
	got := speculate(e, 1, nil)
	if len(got) != 1 {
		t.Errorf("TopK=1 returned %v", got)
	}
}

func TestEngineConcurrency(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.RefreshEvery = time.Millisecond
	e := newTestEngine(t, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := t0.Add(time.Duration(w) * time.Second)
			client := trace.ClientID(string(rune('a' + w)))
			for i := 0; i < 500; i++ {
				e.Record(client, webgraph.DocID(1+i%3), at)
				speculate(e, 1, nil)
				hints(e, 2, nil)
				at = at.Add(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if e.Stats().Recorded != 4000 {
		t.Errorf("recorded %d, want 4000", e.Stats().Recorded)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	bad := DefaultEngineConfig()
	bad.Window = 0
	if _, err := NewEngine(bad, nil); err == nil {
		t.Error("zero window accepted")
	}
	bad = DefaultEngineConfig()
	bad.RefreshEvery = 0
	if _, err := NewEngine(bad, nil); err == nil {
		t.Error("zero refresh accepted")
	}
	bad = DefaultEngineConfig()
	bad.DecayPerDay = 0
	if _, err := NewEngine(bad, nil); err == nil {
		t.Error("zero decay accepted")
	}
	bad = DefaultEngineConfig()
	bad.Tp = 2
	if _, err := NewEngine(bad, nil); err == nil {
		t.Error("Tp > 1 accepted")
	}
}

func TestEngineSetTpValidates(t *testing.T) {
	e := newTestEngine(t, DefaultEngineConfig())
	for _, bad := range []float64{-0.1, 1.01, 2} {
		if err := e.SetTp(bad); err == nil {
			t.Errorf("SetTp(%v) accepted", bad)
		}
	}
	if err := e.SetTp(0.5); err != nil {
		t.Fatalf("SetTp(0.5): %v", err)
	}
	if got := e.Tp(); got != 0.5 {
		t.Errorf("Tp() = %v, want 0.5", got)
	}
}

func TestEngineSetLimitsValidates(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	e := newTestEngine(t, cfg)
	if err := e.SetLimits(-1, 0); err == nil {
		t.Error("negative MaxSize accepted")
	}
	if err := e.SetLimits(0, -1); err == nil {
		t.Error("negative TopK accepted")
	}
	feedPattern(e, 20)
	if err := e.SetLimits(1500, 0); err != nil {
		t.Fatal(err)
	}
	// Doc 2 is 2000 bytes: the new MaxSize must suppress it.
	if got := speculate(e, 1, nil); len(got) != 0 {
		t.Errorf("Speculate(1) = %v after MaxSize 1500, want none", got)
	}
	if err := e.SetLimits(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := speculate(e, 1, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("Speculate(1) = %v after restoring limits, want [2]", got)
	}
}

// TestEngineSetTpRace hammers the runtime setters concurrently with the
// decision paths; meaningful under -race (the Makefile overload target).
func TestEngineSetTpRace(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	e := newTestEngine(t, cfg)
	feedPattern(e, 10)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := e.SetTp(float64(i%10) / 10); err != nil {
					t.Errorf("SetTp: %v", err)
					return
				}
				if err := e.SetLimits(int64(i%3)*1000, i%4); err != nil {
					t.Errorf("SetLimits: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := t0.Add(time.Duration(w) * time.Minute)
			client := trace.ClientID(string(rune('p' + w)))
			for i := 0; i < 500; i++ {
				e.Record(client, webgraph.DocID(1+i%3), at)
				speculate(e, 1, nil)
				split(e, 1, nil)
				at = at.Add(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if tp := e.Tp(); tp < 0 || tp > 1 {
		t.Errorf("Tp() = %v outside [0,1] after hammering", tp)
	}
}

// TestEngineShardedRecordDeterminism feeds the same per-client request
// streams once sequentially and once from concurrent goroutines (one per
// client, so per-client order holds, as in any real server) and demands
// byte-identical speculation decisions after refresh — the acceptance bar
// for the sharded ingestion path.
func TestEngineShardedRecordDeterminism(t *testing.T) {
	build := func(concurrent bool) *Engine {
		cfg := DefaultEngineConfig()
		cfg.MinOccurrences = 2
		// One explicit refresh at the end: auto-refresh timing depends on
		// request interleaving (as it always has — the loadgen harness
		// trains sequentially for the same reason), which is not what
		// this test pins.
		cfg.RefreshEvery = 5000 * time.Hour
		e := newTestEngine(t, cfg)
		var wg sync.WaitGroup
		for c := 0; c < 16; c++ {
			feed := func(c int) {
				at := t0.Add(time.Duration(c) * time.Minute)
				client := trace.ClientID(fmt.Sprintf("client-%02d", c))
				for i := 0; i < 50; i++ {
					e.Record(client, 1, at)
					e.Record(client, webgraph.DocID(2+(c+i)%3), at.Add(time.Second))
					if c%2 == 0 {
						e.Record(client, 3, at.Add(2*time.Second))
					}
					at = at.Add(time.Hour)
				}
			}
			if concurrent {
				wg.Add(1)
				go func(c int) { defer wg.Done(); feed(c) }(c)
			} else {
				feed(c)
			}
		}
		wg.Wait()
		e.Refresh(t0.Add(100 * 24 * time.Hour))
		return e
	}
	seq := build(false)
	con := build(true)
	if s, c := seq.Stats(), con.Stats(); s.Recorded != c.Recorded || s.Pairs != c.Pairs || s.Docs != c.Docs {
		t.Fatalf("stats diverge: sequential %+v concurrent %+v", s, c)
	}
	for doc := webgraph.DocID(1); doc <= 5; doc++ {
		a := hints(seq, doc, nil)
		b := hints(con, doc, nil)
		if len(a) != len(b) {
			t.Fatalf("doc %d: sequential %v vs concurrent %v", doc, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("doc %d hint %d: sequential %+v vs concurrent %+v", doc, i, a[i], b[i])
			}
		}
	}
}

// TestEngineDecisionPathAllocFree pins the tentpole acceptance criterion:
// a warm pooled Decision makes Speculate/Hints/Split allocation-free.
func TestEngineDecisionPathAllocFree(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	e := newTestEngine(t, cfg)
	feedPattern(e, 20, 3)
	d := AcquireDecision()
	defer ReleaseDecision(d)
	e.SplitInto(d, 1, nil) // warm the buffers
	for name, fn := range map[string]func(){
		"SpeculateInto": func() { e.SpeculateInto(d, 1, nil) },
		"HintsInto":     func() { e.HintsInto(d, 1, nil) },
		"SplitInto":     func() { e.SplitInto(d, 1, nil) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v per op, want 0", name, allocs)
		}
	}
	e.SpeculateInto(d, 1, nil)
	if len(d.Push) == 0 {
		t.Fatal("nothing speculated")
	}
}

// TestDecisionPoolRecycles checks Release clears the buffers and Acquire
// hands back a usable Decision.
func TestDecisionPoolRecycles(t *testing.T) {
	d := AcquireDecision()
	d.Push = append(d.Push, 1, 2, 3)
	d.Hints = append(d.Hints, speculation.Hint{Doc: 1, P: 0.5})
	ReleaseDecision(d)
	got := AcquireDecision()
	defer ReleaseDecision(got)
	if len(got.Push) != 0 || len(got.Hints) != 0 {
		t.Errorf("pooled decision not reset: %d push, %d hints", len(got.Push), len(got.Hints))
	}
	ReleaseDecision(nil) // must not panic
}

// TestEngineSnapshotCutover checks a knob change republishes atomically:
// decisions concurrent with SetTp see a coherent old or new snapshot.
func TestEngineSnapshotCutover(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.Tp = 0.1
	e := newTestEngine(t, cfg)
	// 1→2 always, 1→3 half the time: two distinct probability levels.
	at := t0
	for i := 0; i < 40; i++ {
		e.Record("c", 1, at)
		e.Record("c", 2, at.Add(time.Second))
		if i%2 == 0 {
			e.Record("c", 3, at.Add(2*time.Second))
		}
		at = at.Add(time.Hour)
	}
	e.Refresh(at)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = e.SetTp(0.1)
			_ = e.SetTp(0.9)
		}
	}()
	d := AcquireDecision()
	defer ReleaseDecision(d)
	for i := 0; i < 2000; i++ {
		e.SpeculateInto(d, 1, nil)
		// Tp=0.1 admits {2,3}; Tp=0.9 admits {2}. Anything else means a
		// torn snapshot.
		if n := len(d.Push); n != 1 && n != 2 {
			t.Fatalf("torn decision: %v", d.Push)
		}
	}
	<-done
}

func TestReplicatorRankingAndReplicaSet(t *testing.T) {
	r := NewReplicator()
	for i := 0; i < 50; i++ {
		r.Record(1, 1000, true)
	}
	for i := 0; i < 30; i++ {
		r.Record(2, 2000, true)
	}
	for i := 0; i < 100; i++ {
		r.Record(3, 500, false) // locally popular: never remote
	}
	total, remote := r.Requests()
	if total != 180 || remote != 80 {
		t.Errorf("requests = %d/%d", total, remote)
	}
	set := r.ReplicaSet(2500)
	// Ranked by remote count: doc1 (1000B), doc2 (2000B skipped: 3000>2500),
	// doc3 has no remote demand → stop.
	if len(set) != 1 || set[0] != 1 {
		t.Errorf("replica set = %v, want [1]", set)
	}
	set = r.ReplicaSet(3000)
	if len(set) != 2 || set[0] != 1 || set[1] != 2 {
		t.Errorf("replica set = %v, want [1 2]", set)
	}
}

func TestReplicatorFitAndDemand(t *testing.T) {
	r := NewReplicator()
	// Construct a geometric-ish popularity profile over 40 docs.
	for d := 0; d < 40; d++ {
		n := 1 << uint(10-d/4)
		for i := 0; i < n; i++ {
			r.Record(webgraph.DocID(d), 4096, true)
		}
	}
	lam, err := r.FitLambda()
	if err != nil {
		t.Fatal(err)
	}
	if lam <= 0 {
		t.Errorf("lambda = %v", lam)
	}
	dem, err := r.Demand()
	if err != nil {
		t.Fatal(err)
	}
	if dem.R <= 0 || dem.Lambda != lam {
		t.Errorf("demand = %+v", dem)
	}
}

func TestReplicatorRotateAndDemandFallback(t *testing.T) {
	r := NewReplicator()
	for d := 0; d < 40; d++ {
		n := 1 << uint(10-d/4)
		for i := 0; i < n; i++ {
			r.Record(webgraph.DocID(d), 4096, true)
		}
	}
	good, err := r.Demand()
	if err != nil {
		t.Fatal(err)
	}

	r.Rotate()
	total, remote := r.Requests()
	if total != 0 || remote != 0 {
		t.Errorf("after rotate requests = %d/%d, want 0/0", total, remote)
	}
	if set := r.ReplicaSet(1 << 20); len(set) != 0 {
		t.Errorf("after rotate replica set = %v, want empty", set)
	}

	// The fresh window has nothing to fit, but Demand degrades to the
	// last good fit instead of failing.
	if _, err := r.FitLambda(); err == nil {
		t.Fatal("fit on empty window accepted")
	}
	dem, err := r.Demand()
	if err != nil {
		t.Fatalf("demand after rotate: %v", err)
	}
	if dem != good {
		t.Errorf("fallback demand = %+v, want %+v", dem, good)
	}

	// A replicator that never fitted still errors.
	fresh := NewReplicator()
	if _, err := fresh.Demand(); err == nil {
		t.Error("demand with no history accepted")
	}
}

func TestReplicatorFitNoRemote(t *testing.T) {
	r := NewReplicator()
	r.Record(1, 10, false)
	if _, err := r.FitLambda(); err == nil {
		t.Error("fit without remote data accepted")
	}
}

func TestAllocateProxy(t *testing.T) {
	demands := []ServerDemand{
		{R: 5e6, Lambda: 6e-7},
		{R: 1e6, Lambda: 6e-7},
	}
	bs, alpha, err := AllocateProxy(40<<20, demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0] <= bs[1] {
		t.Errorf("allocation %v should favor the popular server", bs)
	}
	if alpha <= 0 || alpha > 1 {
		t.Errorf("alpha = %v", alpha)
	}
	if _, _, err := AllocateProxy(1, nil); err == nil {
		t.Error("empty demand accepted")
	}
}

func TestReplicatorConcurrency(t *testing.T) {
	r := NewReplicator()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(webgraph.DocID(i%20), 1000, i%2 == 0)
				if i%100 == 0 {
					r.ReplicaSet(10000)
				}
			}
		}(w)
	}
	wg.Wait()
	total, _ := r.Requests()
	if total != 8000 {
		t.Errorf("recorded %d, want 8000", total)
	}
}
