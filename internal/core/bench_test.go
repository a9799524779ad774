package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"specweb/internal/estguard"
	"specweb/internal/netsim"
	"specweb/internal/obs"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// BenchmarkEngineRecord measures the online request-ingestion hot path.
// Run with -cpu 1,4,8 to see shard-striping scale across writers.
func BenchmarkEngineRecord(b *testing.B) {
	cfg := DefaultEngineConfig()
	e, err := NewEngine(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(1995, time.May, 1, 0, 0, 0, 0, time.UTC)
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One client per goroutine: each maps to a stable shard, so
		// contention reflects real per-client streams.
		client := trace.ClientID(fmt.Sprintf("c%02d", gid.Add(1)))
		at, i := base, 0
		for pb.Next() {
			e.Record(client, webgraph.DocID(i%500), at)
			at = at.Add(time.Millisecond)
			i++
		}
	})
}

// BenchmarkEngineOfferSettle measures what a followed hint costs the
// engine: the offer made when the prefetch is served and its settlement
// when the client's report arrives, every other one used (logged) and the
// rest forgotten. In steady state — the shards' offer tables at size, the
// log growing by doubling — it allocates nothing; `make bench-smoke` holds
// it to that.
func BenchmarkEngineOfferSettle(b *testing.B) {
	e, err := NewEngine(DefaultEngineConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	at := time.Date(1995, time.May, 1, 0, 0, 0, 0, time.UTC)
	clients := make([]trace.ClientID, 64)
	for i := range clients {
		clients[i] = trace.ClientID(fmt.Sprintf("c%02d", i))
	}
	i := 0
	op := func() {
		client, doc := clients[i%len(clients)], webgraph.DocID(i%500)
		e.Offer(client, doc, at, 500)
		if _, ok := e.Settle(client, doc, i%2 == 0); !ok {
			b.Fatal("the offer just made is not outstanding")
		}
		i++
	}
	for range clients {
		op() // every shard's table exists
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
	b.StopTimer()
	if got := testing.AllocsPerRun(2000, op); got > 0 {
		b.Fatalf("%v allocs per offer and settle, want none", got)
	}
	if st := e.Stats(); st.OffersOutstanding != 0 || st.Recorded == 0 {
		b.Fatalf("engine %+v", st)
	}
}

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	e, err := NewEngine(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	at := time.Date(1995, time.May, 1, 0, 0, 0, 0, time.UTC)
	// Train a fan-out of 20 successors on doc 1.
	for round := 0; round < 50; round++ {
		e.Record("c", 1, at)
		for j := 0; j < 20; j++ {
			e.Record("c", webgraph.DocID(2+j%4), at.Add(time.Duration(j+1)*200*time.Millisecond))
		}
		at = at.Add(time.Hour)
	}
	e.Refresh(at)
	return e
}

// BenchmarkEngineSpeculate measures the per-request policy query on the
// lock-free snapshot path. Run with -cpu 1,4,8: throughput should scale
// near-linearly and allocs/op must stay 0.
func BenchmarkEngineSpeculate(b *testing.B) {
	e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		d := AcquireDecision()
		defer ReleaseDecision(d)
		for pb.Next() {
			e.SpeculateInto(d, 1, nil)
			if len(d.Push) == 0 {
				b.Fatal("nothing learned")
			}
		}
	})
}

// BenchmarkEngineHints measures the hint-building variant of the read path.
func BenchmarkEngineHints(b *testing.B) {
	e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		d := AcquireDecision()
		defer ReleaseDecision(d)
		for pb.Next() {
			e.HintsInto(d, 1, nil)
			if len(d.Hints) == 0 {
				b.Fatal("nothing learned")
			}
		}
	})
}

// BenchmarkEngineRefresh measures one UpdateCycle — drain, fold, freeze,
// publish — as the request that crosses the deadline pays it: an engine
// trained on 29 days of the department site (the benchmark of record's
// learn-online world) folds in one more day of ~1.9k requests. Recording
// the day is outside the timer; only Refresh is measured. `make
// bench-smoke` runs it for the allocs/op ceiling.
func BenchmarkEngineRefresh(b *testing.B) {
	profile, err := webgraph.ProfileByName("department")
	if err != nil {
		b.Fatal(err)
	}
	root := stats.NewRNG(1995)
	site, err := webgraph.Generate(profile, root.Split("site"))
	if err != nil {
		b.Fatal(err)
	}
	topo, err := netsim.Generate(netsim.DefaultConfig(), root.Split("net"))
	if err != nil {
		b.Fatal(err)
	}
	scfg := synth.DefaultConfig(site, topo)
	scfg.Days = 30
	scfg.SessionsPerDay = 220
	res, err := synth.Generate(scfg, root.Split("trace"))
	if err != nil {
		b.Fatal(err)
	}
	first, last, _ := res.Trace.Span()
	const day = 24 * time.Hour
	cut := first.Add(29 * day)
	train := res.Trace.Window(first, cut).Requests
	fold := res.Trace.Window(cut, last.Add(1)).Requests
	size := func(d webgraph.DocID) (int64, bool) { return site.Doc(d).Size, true }

	for _, tc := range []struct {
		name    string
		guard   bool
		ceiling float64
	}{
		// Measured 70 and 1,311 (12,301 and 14,175 with the map-of-maps
		// store). What is left is the size cache, new successors' row
		// growth and the frozen arrays; under a guard, estguard's own
		// per-client features and drift profile.
		{"plain", false, 80},
		{"guarded", true, 1400},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultEngineConfig()
			cfg.Metrics = obs.NewRegistry()
			if tc.guard {
				cfg.Guard = estguard.New(estguard.Config{Metrics: cfg.Metrics})
			}
			e, err := NewEngine(cfg, size)
			if err != nil {
				b.Fatal(err)
			}
			for i := range train {
				e.Record(train[i].Client, train[i].Doc, train[i].Time)
			}
			// Each cycle replays the thirtieth day one day later, so the
			// aged state stays at its steady size however long the run.
			shift := time.Duration(0)
			record := func() {
				for i := range fold {
					e.Record(fold[i].Client, fold[i].Doc, fold[i].Time.Add(shift))
				}
				shift += day
			}
			var phases [numRefreshPhases]float64
			for p, h := range e.met.refreshPhase {
				phases[p] = h.Sum()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				record()
				b.StartTimer()
				e.Refresh(cut.Add(shift))
			}
			b.StopTimer()
			// Where the cycle went, from the engine's own phase histogram;
			// the phases should add up to ns/op.
			for p, h := range e.met.refreshPhase[:phaseCheckpoint] {
				b.ReportMetric((h.Sum()-phases[p])*1e3/float64(b.N), refreshPhaseNames[p]+"_ms")
			}
			// The ceiling counts Refresh alone, as the timer does.
			var before, after runtime.MemStats
			const runs = 5
			var mallocs uint64
			for i := 0; i < runs; i++ {
				record()
				runtime.ReadMemStats(&before)
				e.Refresh(cut.Add(shift))
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
			}
			if got := float64(mallocs) / runs; got > tc.ceiling {
				b.Fatalf("%v allocs per refresh, ceiling %v", got, tc.ceiling)
			}
			b.ReportMetric(float64(len(fold)), "requests")
			b.ReportMetric(float64(e.Stats().Pairs), "pairs")
		})
	}
}

// BenchmarkReplicatorRecord measures popularity tracking throughput.
func BenchmarkReplicatorRecord(b *testing.B) {
	r := NewReplicator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(webgraph.DocID(i%2000), int64(1000+i%5000), i%3 != 0)
	}
}

// BenchmarkReplicaSet measures ranked replica-set construction.
func BenchmarkReplicaSet(b *testing.B) {
	r := NewReplicator()
	for i := 0; i < 100000; i++ {
		r.Record(webgraph.DocID(i%2000), int64(1000+i%5000), i%3 != 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := r.ReplicaSet(1 << 20); len(set) == 0 {
			b.Fatal("empty replica set")
		}
	}
}
