package markov

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"specweb/internal/stats"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// boundedRandTrace builds a seeded multi-client trace over documents
// [0, docs). Gaps are drawn in [0s, 8s), so with a 5 s window pairs both
// join and split — the traversal logic, not just the counting, is
// exercised. Per-client times are monotone, as ByClient requires.
func boundedRandTrace(rng *stats.RNG, docs, reqs int) *trace.Trace {
	clients := []trace.ClientID{"a", "b", "c", "d"}
	at := make([]time.Duration, len(clients))
	tr := &trace.Trace{Requests: make([]trace.Request, 0, reqs)}
	for n := 0; n < reqs; n++ {
		c := rng.Intn(len(clients))
		at[c] += time.Duration(rng.Intn(8)) * time.Second
		tr.Requests = append(tr.Requests, trace.Request{
			Time:   t0.Add(at[c]),
			Client: clients[c],
			Doc:    webgraph.DocID(rng.Intn(docs)),
			Size:   1,
		})
	}
	return tr
}

// requireFrozenIdentical fails unless two frozen matrices are structurally
// identical — ids, offsets, the flat successor array, and the dense index
// all DeepEqual, which is exactly the byte-identity the checkpoint codec
// and the conformance matrix pin.
func requireFrozenIdentical(t *testing.T, got, want *Frozen, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: frozen forms differ\n got: ids=%v off=%v succ=%v dense=%v\nwant: ids=%v off=%v succ=%v dense=%v",
			ctx, got.ids, got.off, got.succ, got.dense, want.ids, want.off, want.succ, want.dense)
	}
}

// boundedReference builds, through Matrix.Set and Matrix.ScaleRow, the
// matrix whose Freeze Bounded.Freeze(scale) must equal: every tracked row
// seen at least MinOccurrences times, each successor at its count over
// occ+Smoothing capped at 1, then damped row by row.
func boundedReference(b *Bounded, scale func(webgraph.DocID) float64) *Matrix {
	m := NewMatrix()
	min := b.cfg.minOccurrences()
	for i, r := range b.rows {
		if r.occ < min {
			continue
		}
		for j, e := range r.succ {
			m.Set(i, j, math.Min(e.count/(r.occ+b.cfg.Smoothing), 1))
		}
	}
	if scale != nil {
		for _, i := range m.Docs() {
			m.ScaleRow(i, scale(i))
		}
	}
	return m
}

// After every cycle the bounded estimator's direct freeze equals Freeze of
// the reference matrix built from its rows, unscaled and under every trust
// function of testScales: across row evictions, top-K evictions, sparse
// and negative IDs, and decays that leave every count, age it, and cull
// it.
func TestBoundedFreezeMatchesReference(t *testing.T) {
	cfg := EstimateConfig{
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		MinOccurrences: 2,
		Smoothing:      2,
	}
	for _, tc := range []struct {
		name          string
		docs          int
		maxRows, topK int
		remap         func(webgraph.DocID) webgraph.DocID // nil keeps the dense IDs
	}{
		{"dense-no-eviction", 16, 64, 16, nil},
		{"dense-row-eviction", 48, 8, 16, nil},
		{"topk-eviction", 24, 64, 3, nil},
		// Spread far enough apart that the snapshot binary-searches.
		{"sparse-ids", 16, 64, 6, func(d webgraph.DocID) webgraph.DocID { return d * 10007 }},
		{"negative-ids", 16, 8, 4, func(d webgraph.DocID) webgraph.DocID { return d*7919 - 60000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, decay := range []float64{1, 0.9, 1e-3} {
				rng := stats.NewRNG(555)
				b := NewBounded(decay, cfg, BoundedConfig{MaxRows: tc.maxRows, RowTopK: tc.topK})
				for day := 0; day < 6; day++ {
					tr := boundedRandTrace(rng, tc.docs, 250)
					if tc.remap != nil {
						for i := range tr.Requests {
							tr.Requests[i].Doc = tc.remap(tr.Requests[i].Doc)
						}
					}
					if err := b.AddDay(tr); err != nil {
						t.Fatal(err)
					}
					ctx := fmt.Sprintf("decay=%v day=%d", decay, day)
					requireFrozenIdentical(t, b.Freeze(nil), Freeze(boundedReference(b, nil)), ctx)
					for name, scale := range testScales() {
						requireFrozenIdentical(t, b.Freeze(scale), Freeze(boundedReference(b, scale)), ctx+" scale="+name)
					}
				}
				st := b.EstimatorStats()
				if tc.maxRows < tc.docs && st.EvictedRows == 0 || tc.topK < tc.docs-1 && st.EvictedPairs == 0 {
					t.Fatalf("decay=%v: no evictions (%+v), test vacuous", decay, st)
				}
			}
		})
	}
}

// matricesIdentical compares two snapshots entry-by-entry with exact
// float64 equality — the byte-identity oracle, not an epsilon check.
func matricesIdentical(a, b *Matrix) bool {
	if len(a.rows) != len(b.rows) {
		return false
	}
	for i, ra := range a.rows {
		rb, ok := b.rows[i]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for j, p := range ra {
			q, ok := rb[j]
			if !ok || p != q {
				return false
			}
		}
	}
	return true
}

// The tentpole property: while nothing has been evicted — every document
// fits under MaxRows and every row under RowTopK — the bounded estimator
// is indistinguishable from the exact one, bit for bit, across multiple
// decayed days, for both the windowed P and the transitive P* pairing.
func TestBoundedMatchesExactUnderCaps(t *testing.T) {
	cfg := EstimateConfig{
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		MinOccurrences: 2,
		Smoothing:      2,
	}
	const docs = 12 // ≤ MaxRows, and any row has ≤ 11 successors ≤ RowTopK
	bcfg := BoundedConfig{MaxRows: 16, RowTopK: 16}
	for seed := int64(0); seed < 8; seed++ {
		for _, decay := range []float64{1, 0.97, 0.5} {
			for _, transitive := range []bool{false, true} {
				rng := stats.NewRNG(1000 + seed)
				exact := NewAging(decay, cfg)
				bounded := NewBounded(decay, cfg, bcfg)
				bounded.Transitive = transitive
				exact.Transitive = transitive
				for day := 0; day < 4; day++ {
					tr := boundedRandTrace(rng, docs, 150)
					if err := exact.AddDay(tr); err != nil {
						t.Fatal(err)
					}
					if err := bounded.AddDay(tr); err != nil {
						t.Fatal(err)
					}
					// Byte-level check: the two direct freezes compile the
					// same CSR.
					requireFrozenIdentical(t, bounded.Freeze(nil), exact.Freeze(nil),
						fmt.Sprintf("seed=%d decay=%v transitive=%v day=%d", seed, decay, transitive, day))
					st := bounded.EstimatorStats()
					if st.EvictedRows != 0 || st.EvictedPairs != 0 || st.EvictedMass != 0 || st.ErrorBound != 0 {
						t.Fatalf("no-eviction regime reported evictions: %+v", st)
					}
					// Support parity feeds trust scoring identically.
					for d := webgraph.DocID(0); d < docs; d++ {
						if exact.Occurrences(d) != bounded.Occurrences(d) {
							t.Fatalf("occ[%d]: exact %v bounded %v", d, exact.Occurrences(d), bounded.Occurrences(d))
						}
					}
					if exact.Pairs() != bounded.Pairs() {
						t.Fatalf("pairs: exact %d bounded %d", exact.Pairs(), bounded.Pairs())
					}
				}
			}
		}
	}
}

// The space-saving sandwich: with RowTopK forced tiny, every tracked pair
// satisfies count − err ≤ true ≤ count against the exact accumulator, the
// inherited error never exceeds the per-row ε = rowMass/K bound, and the
// count-min sketch upper-bounds every pair the row dropped.
func TestBoundedSpaceSavingSandwich(t *testing.T) {
	cfg := EstimateConfig{
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		MinOccurrences: 1,
		Smoothing:      2,
	}
	const (
		docs = 24
		k    = 3
	)
	for seed := int64(0); seed < 6; seed++ {
		rng := stats.NewRNG(7000 + seed)
		exact := NewAging(1, cfg)
		bounded := NewBounded(1, cfg, BoundedConfig{MaxRows: 1 << 16, RowTopK: k})
		for day := 0; day < 3; day++ {
			tr := boundedRandTrace(rng, docs, 400)
			if err := exact.AddDay(tr); err != nil {
				t.Fatal(err)
			}
			if err := bounded.AddDay(tr); err != nil {
				t.Fatal(err)
			}
		}
		st := bounded.EstimatorStats()
		if st.EvictedPairs == 0 {
			t.Fatalf("seed=%d: workload too tame — K=%d forced no evictions, test vacuous", seed, k)
		}
		truths := exact.acc.counts()
		for i, r := range bounded.rows {
			if len(r.succ) > k {
				t.Fatalf("row %d holds %d > K=%d successors", i, len(r.succ), k)
			}
			// rowMass is the true total increment mass of row i: with
			// decay=1 every counted (i,j) observation is still in the exact
			// accumulator, so it equals Σ_j true(i,j).
			var rowMass float64
			for _, c := range truths[i] {
				rowMass += c
			}
			for j, e := range r.succ {
				truth := truths[i][j]
				if e.count < truth {
					t.Errorf("row %d→%d: count %v < true %v (upper bound violated)", i, j, e.count, truth)
				}
				if e.count-e.err > truth {
					t.Errorf("row %d→%d: count−err %v > true %v (lower bound violated)", i, j, e.count-e.err, truth)
				}
				if e.err > rowMass/float64(k)+1e-9 {
					t.Errorf("row %d→%d: err %v exceeds ε = rowMass/K = %v", i, j, e.err, rowMass/float64(k))
				}
				if e.err > st.ErrorBound {
					t.Errorf("row %d→%d: err %v exceeds reported ErrorBound %v", i, j, e.err, st.ErrorBound)
				}
			}
			// Every pair the exact oracle holds but the bounded row dropped
			// must be covered by the eviction sketch: an untracked pair's
			// full true mass passed through a space-saving eviction.
			for j, truth := range truths[i] {
				if _, tracked := r.succ[j]; tracked {
					continue
				}
				if got := bounded.EvictedBound(i, j); got < truth {
					t.Errorf("row %d→%d: evicted bound %v < true %v", i, j, got, truth)
				}
			}
		}
	}
}

// Row-granularity space-saving: with MaxRows forced tiny the tracked-row
// count never exceeds the cap, surviving rows keep the occurrence sandwich
// occ − occErr ≤ true ≤ occ, and the eviction ledger moves monotonically.
func TestBoundedRowAdmission(t *testing.T) {
	cfg := EstimateConfig{
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		MinOccurrences: 1,
		Smoothing:      2,
	}
	const (
		docs    = 48
		maxRows = 6
	)
	rng := stats.NewRNG(99)
	exact := NewAging(1, cfg)
	bounded := NewBounded(1, cfg, BoundedConfig{MaxRows: maxRows, RowTopK: 8})
	var prev EstimatorStats
	for day := 0; day < 4; day++ {
		tr := boundedRandTrace(rng, docs, 300)
		if err := exact.AddDay(tr); err != nil {
			t.Fatal(err)
		}
		if err := bounded.AddDay(tr); err != nil {
			t.Fatal(err)
		}
		if len(bounded.rows) > maxRows {
			t.Fatalf("day %d: %d rows tracked, cap %d", day, len(bounded.rows), maxRows)
		}
		st := bounded.EstimatorStats()
		if st.EvictedRows < prev.EvictedRows || st.EvictedPairs < prev.EvictedPairs {
			t.Fatalf("day %d: eviction counters went backwards: %+v after %+v", day, st, prev)
		}
		prev = st
		for i, r := range bounded.rows {
			truth := exact.Occurrences(i)
			if r.occ < truth {
				t.Errorf("day %d row %d: occ %v < true %v", day, i, r.occ, truth)
			}
			if r.occ-r.occErr > truth {
				t.Errorf("day %d row %d: occ−occErr %v > true %v", day, i, r.occ-r.occErr, truth)
			}
		}
	}
	if prev.EvictedRows == 0 {
		t.Fatal("workload too tame — no row evictions, test vacuous")
	}
}

func TestBoundedImportCountersMonotone(t *testing.T) {
	b := NewBounded(1, DefaultEstimate(), BoundedConfig{})
	b.ImportCounters(10, 20, 1.5)
	st := b.EstimatorStats()
	if st.EvictedRows != 10 || st.EvictedPairs != 20 || st.EvictedMass != 1.5 {
		t.Fatalf("import lost: %+v", st)
	}
	// A stale frame must never roll the ledger back.
	b.ImportCounters(5, 5, 0.5)
	st = b.EstimatorStats()
	if st.EvictedRows != 10 || st.EvictedPairs != 20 || st.EvictedMass != 1.5 {
		t.Fatalf("stale import rolled counters back: %+v", st)
	}
}

func TestNewBoundedRejectsBadDecay(t *testing.T) {
	for _, d := range []float64{0, -1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decay %v should panic", d)
				}
			}()
			NewBounded(d, DefaultEstimate(), BoundedConfig{})
		}()
	}
	// Zero-valued caps take the documented defaults.
	b := NewBounded(1, DefaultEstimate(), BoundedConfig{})
	if b.Config() != DefaultBounded() {
		t.Errorf("defaults not applied: %+v", b.Config())
	}
}

// TestBoundedMemoryGate is the CI memory gate (`make bench-memory`): at a
// 10× document-cardinality jump with the caps saturated, the bounded
// estimator's footprint must stay flat while the exact estimator's grows
// multiplicatively. MemoryBytes is analytic — entry counts × fixed
// per-entry costs — so the gate is deterministic, not heap-noise-bound.
// With BENCH_MEMORY_OUT set it also writes the report artifact CI uploads.
func TestBoundedMemoryGate(t *testing.T) {
	cfg := EstimateConfig{
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		MinOccurrences: 1,
		Smoothing:      2,
	}
	bcfg := BoundedConfig{MaxRows: 64, RowTopK: 4}
	run := func(docs, reqs int) (exactBytes, boundedBytes int64) {
		rng := stats.NewRNG(4242)
		exact := NewAging(1, cfg)
		bounded := NewBounded(1, cfg, bcfg)
		for day := 0; day < 3; day++ {
			tr := boundedRandTrace(rng, docs, reqs)
			if err := exact.AddDay(tr); err != nil {
				t.Fatal(err)
			}
			if err := bounded.AddDay(tr); err != nil {
				t.Fatal(err)
			}
			exact.Freeze(nil)
			bounded.Freeze(nil)
		}
		return exact.EstimatorStats().MemoryBytes, bounded.EstimatorStats().MemoryBytes
	}
	exact1, bounded1 := run(128, 4000)
	exact10, bounded10 := run(1280, 40000) // 10× cardinality, 10× traffic
	exactGrowth := float64(exact10) / float64(exact1)
	boundedGrowth := float64(bounded10) / float64(bounded1)
	t.Logf("exact:   %d B → %d B (×%.2f) at 10× cardinality", exact1, exact10, exactGrowth)
	t.Logf("bounded: %d B → %d B (×%.2f) at 10× cardinality", bounded1, bounded10, boundedGrowth)
	if boundedGrowth > 1.1 {
		t.Errorf("bounded estimator grew ×%.2f at 10× cardinality; gate requires ≤ 1.1 (flat)", boundedGrowth)
	}
	if exactGrowth < 3 {
		t.Errorf("exact estimator grew only ×%.2f at 10× cardinality; contrast check expects ≥ 3 — "+
			"the workload no longer saturates the caps and the gate is vacuous", exactGrowth)
	}
	writeMemoryGateReport(t, memoryGateReport{
		Caps:            bcfg,
		ExactBytes1x:    exact1,
		ExactBytes10x:   exact10,
		BoundedBytes1x:  bounded1,
		BoundedBytes10x: bounded10,
		ExactGrowth:     exactGrowth,
		BoundedGrowth:   boundedGrowth,
	})
}
