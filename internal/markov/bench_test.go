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

// BenchmarkEstimateTransitive measures direct P* estimation as the
// simulator runs it each cycle: the trace folded into a fresh transitive
// Aging, then frozen.
func BenchmarkEstimateTransitive(b *testing.B) {
	tr := benchTrace(b)
	cfg := DefaultEstimate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAging(1, cfg)
		a.Transitive = true
		if err := a.AddDay(tr); err != nil {
			b.Fatal(err)
		}
		a.Freeze(nil)
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

// reportPairMetrics reports the closure's input size.
func reportPairMetrics(b *testing.B, m *Matrix) {
	b.ReportMetric(float64(m.NumPairs()), "tracked_pairs")
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
// accumulator compiled straight to CSR, each row read in its kept order —
// on the matrix BenchmarkFreeze compiles, so the two compilers read
// against each other. The first freeze,
// which gives every row its kept order, is outside the timer. `make
// bench-smoke` runs it for the allocs/op ceiling: measured 5, the Frozen
// and its four arrays; an allocation per row would read in the hundreds.
func BenchmarkAgingFreeze(b *testing.B) {
	tr := benchTrace(b)
	a := NewAging(1, DefaultEstimate())
	if err := a.AddDay(tr); err != nil {
		b.Fatal(err)
	}
	f := a.Freeze(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = a.Freeze(nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(f.NumPairs()), "pairs")
	allocCeiling(b, 8, func() { a.Freeze(nil) })
}

// allocCeiling fails the benchmark when fn allocates more than ceiling
// times a run.
func allocCeiling(b *testing.B, ceiling float64, fn func()) {
	if got := testing.AllocsPerRun(5, fn); got > ceiling {
		b.Fatalf("%v allocs per run, ceiling %v", got, ceiling)
	}
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

// BenchmarkAgingAddDay measures folding one day into a fresh exact
// estimator: every row and its index grown from empty. `make bench-smoke`
// runs it for the allocs/op ceiling: measured 645, of which about 200 are
// the row indexes growing by doubling; an index reallocated at every new
// successor reads 945.
func BenchmarkAgingAddDay(b *testing.B) {
	tr := benchTrace(b)
	first, _, _ := tr.Span()
	day := tr.Window(first, first.Add(24*time.Hour))
	addDay := func() {
		a := NewAging(0.97, DefaultEstimate())
		if err := a.AddDay(day); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addDay()
	}
	b.StopTimer()
	allocCeiling(b, 720, addDay)
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
