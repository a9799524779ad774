package markov

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

var t0 = time.Date(1995, time.January, 9, 0, 0, 0, 0, time.UTC)

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 0.5)
	if m.Get(1, 2) != 0.5 || m.Get(2, 1) != 0 {
		t.Error("basic get/set broken")
	}
	m.Set(1, 2, 0) // deletion
	if m.Get(1, 2) != 0 || m.NumPairs() != 0 || m.NumRows() != 0 {
		t.Error("zero set should delete")
	}
	defer func() {
		if recover() == nil {
			t.Error("p > 1 should panic")
		}
	}()
	m.Set(1, 2, 1.5)
}

func TestMatrixSortedRow(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 5, 0.2)
	m.Set(1, 3, 0.9)
	m.Set(1, 4, 0.2)
	row := m.SortedRow(1)
	if len(row) != 3 || row[0].Doc != 3 || row[1].Doc != 4 || row[2].Doc != 5 {
		t.Errorf("sorted row = %v", row)
	}
	if m.SortedRow(99) != nil && len(m.SortedRow(99)) != 0 {
		t.Error("missing row should be empty")
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 0.4)
	c := m.Clone()
	c.Set(1, 2, 0.9)
	if m.Get(1, 2) != 0.4 {
		t.Error("clone shares storage")
	}
}

func TestMatrixPrune(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 0.001)
	m.Set(1, 3, 0.5)
	m.Prune(0.01)
	if m.Get(1, 2) != 0 || m.Get(1, 3) != 0.5 {
		t.Error("prune wrong")
	}
}

func TestClosureChain(t *testing.T) {
	// 1 → 2 (0.5), 2 → 3 (0.5): closure must add 1 → 3 with 0.25.
	m := NewMatrix()
	m.Set(1, 2, 0.5)
	m.Set(2, 3, 0.5)
	c := m.Closure(1e-6, 1e-9, 0)
	if got := c.Get(1, 3); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("p*[1,3] = %v, want 0.25", got)
	}
	if got := c.Get(1, 2); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("closure must include direct edges: p*[1,2] = %v", got)
	}
}

func TestClosureClampsAtOne(t *testing.T) {
	// Two certain paths 1→2→4 and 1→3→4 would sum to 2; clamp at 1.
	m := NewMatrix()
	m.Set(1, 2, 1)
	m.Set(1, 3, 1)
	m.Set(2, 4, 1)
	m.Set(3, 4, 1)
	c := m.Closure(1e-6, 1e-9, 0)
	if got := c.Get(1, 4); got != 1 {
		t.Errorf("p*[1,4] = %v, want clamped 1", got)
	}
}

func TestClosureCycleConverges(t *testing.T) {
	// 1 → 2 → 1 cycle with sub-unit probabilities. Under the noisy-OR
	// composition the fixpoint solves
	//   x = 1 - (1-0.6)·(1 - 0.6·(0.5·x))  ⇒  x = 0.6/0.88.
	m := NewMatrix()
	m.Set(1, 2, 0.6)
	m.Set(2, 1, 0.5)
	c := m.Closure(1e-9, 1e-12, 200)
	want := 0.6 / 0.88
	if got := c.Get(1, 2); math.Abs(got-want) > 1e-6 {
		t.Errorf("p*[1,2] = %v, want %v", got, want)
	}
	// No self-dependencies are recorded.
	if got := c.Get(1, 1); got != 0 {
		t.Errorf("p*[1,1] = %v, want 0 (self-dependencies excluded)", got)
	}
}

func TestClosureDominatesP(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 0.3)
	m.Set(2, 3, 0.7)
	m.Set(1, 3, 0.1)
	c := m.Closure(1e-9, 1e-9, 0)
	for _, i := range []webgraph.DocID{1, 2} {
		for _, s := range m.SortedRow(i) {
			if c.Get(i, s.Doc) < s.P-1e-12 {
				t.Errorf("closure lost mass: p*[%d,%d]=%v < p=%v", i, s.Doc, c.Get(i, s.Doc), s.P)
			}
		}
	}
}

func mkReq(c string, at time.Duration, doc webgraph.DocID) trace.Request {
	return trace.Request{Time: t0.Add(at), Client: trace.ClientID(c), Doc: doc, Size: 1}
}

func TestEstimateBasic(t *testing.T) {
	// Client a requests doc 1 three times; doc 2 follows within the window
	// twice. p[1,2] = 2/3.
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", time.Second, 2),
		mkReq("a", time.Hour, 1),
		mkReq("a", time.Hour+2*time.Second, 2),
		mkReq("a", 2*time.Hour, 1),
		// nothing follows the third occurrence
	}}
	m, err := Estimate(tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get(1, 2); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("p[1,2] = %v, want 2/3", got)
	}
	// Reverse direction: doc 2 occurred twice, never followed by 1 in
	// window.
	if got := m.Get(2, 1); got != 0 {
		t.Errorf("p[2,1] = %v, want 0", got)
	}
}

func TestEstimateWindowBoundary(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", 6*time.Second, 2), // outside 5s window
	}}
	m, err := Estimate(tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Get(1, 2) != 0 {
		t.Error("pair outside window counted")
	}
}

func TestEstimateDistinctPerOccurrence(t *testing.T) {
	// D_j requested twice within one window counts once.
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", time.Second, 2),
		mkReq("a", 2*time.Second, 2),
	}}
	m, err := Estimate(tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get(1, 2); got != 1 {
		t.Errorf("p[1,2] = %v, want exactly 1", got)
	}
}

func TestEstimateClientsSeparate(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("b", time.Second, 2), // different client: no pair
	}}
	m, err := Estimate(tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPairs() != 0 {
		t.Error("cross-client pair counted")
	}
}

func TestEstimateStrideRestriction(t *testing.T) {
	// 1 then (gap 4s) 2 then (gap 4s) 3: with StrideTimeout 5s and window
	// 10s, (1,3) is in-window and in-stride. With StrideTimeout 3s the
	// stride breaks and nothing pairs.
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", 4*time.Second, 2),
		mkReq("a", 8*time.Second, 3),
	}}
	m, err := Estimate(tr, EstimateConfig{Window: 10 * time.Second, StrideTimeout: 5 * time.Second, MinOccurrences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Get(1, 3) != 1 {
		t.Errorf("in-stride pair missing: %v", m.Get(1, 3))
	}
	m, err = Estimate(tr, EstimateConfig{Window: 10 * time.Second, StrideTimeout: 3 * time.Second, MinOccurrences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPairs() != 0 {
		t.Error("stride-broken pairs counted")
	}
}

func TestEstimateMinOccurrences(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", time.Second, 2),
	}}
	m, err := Estimate(tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPairs() != 0 {
		t.Error("single-occurrence row kept despite MinOccurrences=2")
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(&trace.Trace{}, EstimateConfig{Window: 0}); err == nil {
		t.Error("zero window accepted")
	}
}

// The headline §3.1 property: on a synthetic trace, embedding dependencies
// produce p ≈ 1 pairs and traversal dependencies produce peaks near 1/k.
func TestFigure4Structure(t *testing.T) {
	site, err := webgraph.Generate(webgraph.DepartmentSite(), stats.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DefaultConfig(site, nil)
	cfg.Days = 20
	cfg.SessionsPerDay = 200
	res, err := synth.Generate(cfg, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Estimate(res.Trace, EstimateConfig{
		Window: 5 * time.Second, StrideTimeout: 5 * time.Second, MinOccurrences: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPairs() < 100 {
		t.Fatalf("only %d pairs estimated", m.NumPairs())
	}

	// Embedding check: pages with embedded objects must have p ≈ 1 edges
	// to them whenever the page was requested often enough.
	checked := 0
	for i := range site.Docs {
		d := &site.Docs[i]
		if d.Kind != webgraph.Page || len(d.Embedded) == 0 {
			continue
		}
		if len(m.SortedRow(d.ID)) == 0 {
			continue
		}
		for _, e := range d.Embedded {
			if p := m.Get(d.ID, e); p > 0 {
				checked++
				if p < 0.95 {
					t.Errorf("embedding p[%d,%d] = %v, want ≈1", d.ID, e, p)
				}
			}
		}
	}
	if checked < 10 {
		t.Errorf("too few embedding pairs observed (%d)", checked)
	}

	// Histogram check: mass near 1.0 (embeddings) must exist, and there
	// must be substantial sub-0.6 mass (traversal dependencies).
	h := m.PairHistogram(20)
	top := h.Counts[19]
	if top == 0 {
		t.Error("no mass in the p≈1 bin")
	}
	var low int64
	for b := 0; b < 12; b++ {
		low += h.Counts[b]
	}
	if low == 0 {
		t.Error("no traversal-dependency mass below 0.6")
	}
}

func TestAging(t *testing.T) {
	cfg := EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1}
	a := NewAging(0.5, cfg)

	day1 := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", time.Second, 2),
	}}
	if err := a.AddDay(day1); err != nil {
		t.Fatal(err)
	}
	if got := a.Snapshot().Get(1, 2); got != 1 {
		t.Errorf("after day1 p[1,2] = %v, want 1", got)
	}

	// Day 2: doc 1 requested, followed by doc 3 instead.
	day2 := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 48*time.Hour, 1),
		mkReq("a", 48*time.Hour+time.Second, 3),
	}}
	if err := a.AddDay(day2); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	// occ(1) = 0.5 + 1 = 1.5; count(1,2) = 0.5; count(1,3) = 1.
	if got := snap.Get(1, 2); math.Abs(got-0.5/1.5) > 1e-9 {
		t.Errorf("aged p[1,2] = %v, want 1/3", got)
	}
	if got := snap.Get(1, 3); math.Abs(got-1/1.5) > 1e-9 {
		t.Errorf("fresh p[1,3] = %v, want 2/3", got)
	}
}

func TestAgingPanicsOnBadDecay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("decay > 1 should panic")
		}
	}()
	NewAging(1.5, DefaultEstimate())
}

// Property: estimated probabilities are always in (0, 1]; the closure
// dominates P and stays within [0, 1].
func TestEstimateClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		tr := &trace.Trace{}
		at := time.Duration(0)
		for i := 0; i < 200; i++ {
			at += time.Duration(g.Intn(8000)) * time.Millisecond
			tr.Requests = append(tr.Requests,
				mkReq(of(g.Intn(3)), at, webgraph.DocID(g.Intn(12))))
		}
		m, err := Estimate(tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1})
		if err != nil {
			return false
		}
		for i, row := range m.rows {
			for j, p := range row {
				if p <= 0 || p > 1 || i == j {
					return false
				}
			}
		}
		c := m.Closure(1e-6, 1e-9, 0)
		for i, row := range m.rows {
			for j, p := range row {
				cp := c.Get(i, j)
				if cp < p-1e-9 || cp > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// of names clients a, b, c.
func of(i int) string { return string(rune('a' + i)) }

// transitiveAging folds tr into a fresh exact estimator pairing on P*
// straight from the strides, as the simulator builds each cycle.
func transitiveAging(t *testing.T, tr *trace.Trace, cfg EstimateConfig) *Aging {
	t.Helper()
	a := NewAging(1, cfg)
	a.Transitive = true
	if err := a.AddDay(tr); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestEstimateTransitive(t *testing.T) {
	// 1 → 2 → 3 within one stride (gaps 4s < 5s timeout) but the 1→3 gap
	// (8s) exceeds the 5s window: windowed P misses (1,3), transitive P*
	// catches it.
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", 4*time.Second, 2),
		mkReq("a", 8*time.Second, 3),
	}}
	cfg := EstimateConfig{Window: 5 * time.Second, StrideTimeout: 5 * time.Second, MinOccurrences: 1}
	p, err := Estimate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Get(1, 3) != 0 {
		t.Errorf("windowed P caught the out-of-window pair: %v", p.Get(1, 3))
	}
	ps := transitiveAging(t, tr, cfg).Freeze(nil)
	if ps.Get(1, 3) != 1 {
		t.Errorf("p*[1,3] = %v, want 1 (same stride)", ps.Get(1, 3))
	}
	if ps.Get(1, 2) != 1 || ps.Get(2, 3) != 1 {
		t.Error("transitive estimate lost direct pairs")
	}
}

func TestEstimateTransitiveDefaultsStride(t *testing.T) {
	// Without a stride timeout the window doubles as the stride bound.
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", 4*time.Second, 2),
		mkReq("a", 20*time.Second, 3), // breaks the stride
	}}
	m := transitiveAging(t, tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1}).Freeze(nil)
	if m.Get(1, 2) != 1 || m.Get(1, 3) != 0 || m.Get(2, 3) != 0 {
		t.Errorf("rows: 1→%v 2→%v", m.SortedRow(1), m.SortedRow(2))
	}
	a := NewAging(1, EstimateConfig{StrideTimeout: 5 * time.Second})
	a.Transitive = true
	if err := a.AddDay(tr); err == nil {
		t.Error("a stride timeout without a window accepted")
	}
}

func TestEstimateSmoothing(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", time.Second, 2),
	}}
	m, err := Estimate(tr, EstimateConfig{Window: 5 * time.Second, MinOccurrences: 1, Smoothing: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get(1, 2); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("smoothed p = %v, want 1/(1+3)", got)
	}
}

func TestAgingErrorOnBadWindow(t *testing.T) {
	a := NewAging(0.9, EstimateConfig{})
	if err := a.AddDay(&trace.Trace{}); err == nil {
		t.Error("aging with zero window accepted a day")
	}
}

func TestAgingTransitive(t *testing.T) {
	cfg := EstimateConfig{Window: 5 * time.Second, StrideTimeout: 5 * time.Second, MinOccurrences: 1}
	a := NewAging(1, cfg)
	a.Transitive = true
	day := &trace.Trace{Requests: []trace.Request{
		mkReq("a", 0, 1),
		mkReq("a", 4*time.Second, 2),
		mkReq("a", 8*time.Second, 3),
	}}
	if err := a.AddDay(day); err != nil {
		t.Fatal(err)
	}
	if got := a.Snapshot().Get(1, 3); got != 1 {
		t.Errorf("transitive aging p*[1,3] = %v, want 1", got)
	}
}

func TestPruneDropsEmptyRows(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 2, 0.001)
	m.Prune(0.01)
	if m.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", m.NumRows())
	}
}
