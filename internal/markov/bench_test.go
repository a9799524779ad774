package markov

import (
	"runtime"
	"testing"
	"time"

	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := synth.DefaultConfig(site, nil)
	cfg.Days = 10
	cfg.SessionsPerDay = 80
	res, err := synth.Generate(cfg, stats.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	return res.Trace
}

// BenchmarkEstimate measures windowed P estimation throughput.
func BenchmarkEstimate(b *testing.B) {
	tr := benchTrace(b)
	cfg := DefaultEstimate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "requests")
}

// BenchmarkEstimateTransitive measures direct P* estimation.
func BenchmarkEstimateTransitive(b *testing.B) {
	tr := benchTrace(b)
	cfg := DefaultEstimate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateTransitive(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosure measures the analytic noisy-OR closure.
func BenchmarkClosure(b *testing.B) {
	tr := benchTrace(b)
	m, err := Estimate(tr, DefaultEstimate())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Closure(1e-3, 1e-4, 6)
	}
	reportPairMetrics(b, m)
}

// reportPairMetrics splits the old input_pairs metric into what the matrix
// actually holds vs what a bounded estimator dropped on the way: NumPairs
// only ever counted tracked pairs, and conflating the two would let a
// bounding change shift benchmark baselines silently.
func reportPairMetrics(b *testing.B, m *Matrix) {
	b.ReportMetric(float64(m.NumPairs()), "tracked_pairs")
	b.ReportMetric(float64(m.EvictedPairs()), "evicted_pairs")
}

// BenchmarkClosureSerial pins the single-worker closure as the baseline
// for the parallel variant below.
func BenchmarkClosureSerial(b *testing.B) {
	tr := benchTrace(b)
	m, err := Estimate(tr, DefaultEstimate())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.closure(1e-3, 1e-4, 6, 1)
	}
	reportPairMetrics(b, m)
}

// BenchmarkClosureParallel measures the row-parallel worker pool at full
// width; compare against BenchmarkClosureSerial for the speedup.
func BenchmarkClosureParallel(b *testing.B) {
	tr := benchTrace(b)
	m, err := Estimate(tr, DefaultEstimate())
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.closure(1e-3, 1e-4, 6, workers)
	}
	reportPairMetrics(b, m)
}

// BenchmarkFreeze measures CSR snapshot construction (refresh-path cost).
func BenchmarkFreeze(b *testing.B) {
	tr := benchTrace(b)
	m, err := Estimate(tr, DefaultEstimate())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Freeze(m)
	}
	b.ReportMetric(float64(m.NumPairs()), "pairs")
}

// BenchmarkAgingFreeze measures the exact estimator's direct freeze — the
// accumulator compiled straight to CSR, rows gathered in the previous
// freeze's order — on the matrix BenchmarkFreeze and BenchmarkDeltaFreeze
// compile, so the three refresh-path compilers read against each other.
func BenchmarkAgingFreeze(b *testing.B) {
	tr := benchTrace(b)
	a := NewAging(1, DefaultEstimate())
	if err := a.AddDay(tr); err != nil {
		b.Fatal(err)
	}
	var f *Frozen
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ = a.Freeze(nil)
	}
	b.ReportMetric(float64(f.NumPairs()), "pairs")
}

// BenchmarkFrozenThresholdRow measures the zero-alloc binary-search cut on
// a frozen row — the innermost operation of the request hot path.
func BenchmarkFrozenThresholdRow(b *testing.B) {
	tr := benchTrace(b)
	m, err := Estimate(tr, DefaultEstimate())
	if err != nil {
		b.Fatal(err)
	}
	f := Freeze(m)
	var widest webgraph.DocID
	best := 0
	f.RangeRows(func(doc webgraph.DocID, row []Successor) bool {
		if len(row) > best {
			widest, best = doc, len(row)
		}
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row := f.ThresholdRow(widest, 0.05); len(row) == 0 && best > 0 {
			_ = row
		}
	}
}

// BenchmarkAgingAddDay measures incremental daily folding.
func BenchmarkAgingAddDay(b *testing.B) {
	tr := benchTrace(b)
	first, _, _ := tr.Span()
	day := tr.Window(first, first.Add(24*time.Hour))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAging(0.97, DefaultEstimate())
		if err := a.AddDay(day); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundedAddDay measures the bounded counterpart under caps tight
// enough that space-saving eviction is on the measured path; compare
// against BenchmarkAgingAddDay for the streaming overhead.
func BenchmarkBoundedAddDay(b *testing.B) {
	tr := benchTrace(b)
	first, _, _ := tr.Span()
	day := tr.Window(first, first.Add(24*time.Hour))
	b.ResetTimer()
	var st EstimatorStats
	for i := 0; i < b.N; i++ {
		bd := NewBounded(0.97, DefaultEstimate(), BoundedConfig{MaxRows: 64, RowTopK: 8})
		if err := bd.AddDay(day); err != nil {
			b.Fatal(err)
		}
		st = bd.EstimatorStats()
	}
	b.ReportMetric(float64(st.TrackedPairs), "tracked_pairs")
	b.ReportMetric(float64(st.EvictedPairs), "evicted_pairs")
	b.ReportMetric(float64(st.MemoryBytes), "estimator_bytes")
}

// BenchmarkDeltaFreeze measures the incremental refresh-path freeze when
// only a small fraction of rows changed since the previous snapshot —
// the case delta-freezing exists for. Compare against BenchmarkFreeze.
func BenchmarkDeltaFreeze(b *testing.B) {
	tr := benchTrace(b)
	m, err := Estimate(tr, DefaultEstimate())
	if err != nil {
		b.Fatal(err)
	}
	prev := Freeze(m)
	// Touch ~1/16 of the rows, the shape of a quiet refresh window.
	var dirty []webgraph.DocID
	f := Freeze(m)
	f.RangeRows(func(doc webgraph.DocID, row []Successor) bool {
		if int(doc)%16 == 0 {
			m.Set(doc, row[0].Doc, row[0].P/2)
			dirty = append(dirty, doc)
		}
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaFreeze(prev, m, dirty)
	}
	b.ReportMetric(float64(len(dirty)), "dirty_rows")
	b.ReportMetric(float64(m.NumRows()), "total_rows")
}
