package simulate

import (
	"sync"
	"testing"
	"time"

	"specweb/internal/cache"
	"specweb/internal/speculation"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// shared fixture: generating a trace is the expensive part, so tests share
// one medium-sized workload.
var (
	fixOnce sync.Once
	fixSite *webgraph.Site
	fixTr   *trace.Trace
)

func fixture(t *testing.T) (*webgraph.Site, *trace.Trace) {
	t.Helper()
	fixOnce.Do(func() {
		site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(71))
		if err != nil {
			t.Fatal(err)
		}
		cfg := synth.DefaultConfig(site, nil)
		cfg.Days = 21
		cfg.SessionsPerDay = 60
		cfg.RemoteClients = 300
		cfg.LocalClients = 20
		res, err := synth.Generate(cfg, stats.NewRNG(72))
		if err != nil {
			t.Fatal(err)
		}
		fixSite, fixTr = site, res.Trace
	})
	if fixSite == nil {
		t.Fatal("fixture failed")
	}
	return fixSite, fixTr
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	site, tr := fixture(t)
	cfg.Site = site
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineDefaultsMatchPaperTable(t *testing.T) {
	c := Baseline(nil, 0.25)
	if c.Costs.CommCost != 1 || c.Costs.ServCost != 10000 {
		t.Error("costs differ from the paper's table")
	}
	if c.StrideTimeout != 5*time.Second || c.Window != 5*time.Second {
		t.Error("stride timeout / window differ from 5s")
	}
	if c.SessionTimeout != cache.Forever {
		t.Error("session timeout should be ∞")
	}
	if c.MaxSize != 0 {
		t.Error("MaxSize should be unlimited")
	}
	if c.HistoryLength != 60 || c.UpdateCycle != 1 {
		t.Error("history/update cycle differ from 60/1")
	}
	if !c.UseClosure || c.Mode != speculation.ModePush {
		t.Error("baseline should push on the closure")
	}
}

func TestRunSpeculationTradeoffs(t *testing.T) {
	site, tr := fixture(t)
	cfg := Baseline(site, 0.25)
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Ratios
	// Speculation costs bandwidth and buys load/time/miss improvements.
	if r.Bandwidth <= 1.0 {
		t.Errorf("bandwidth ratio %v: speculation should cost extra traffic", r.Bandwidth)
	}
	if r.ServerLoad >= 1.0 {
		t.Errorf("server load ratio %v: speculation should reduce load", r.ServerLoad)
	}
	if r.ServiceTime >= 1.0 {
		t.Errorf("service time ratio %v: speculation should reduce latency", r.ServiceTime)
	}
	if r.MissRate >= 1.0 {
		t.Errorf("miss rate ratio %v: speculation should reduce misses", r.MissRate)
	}
	if res.SpeculatedDocs == 0 || res.UsedDocs == 0 {
		t.Errorf("speculated=%d used=%d: expected activity", res.SpeculatedDocs, res.UsedDocs)
	}
	if res.UsedDocs > res.SpeculatedDocs {
		t.Errorf("used %d > speculated %d", res.UsedDocs, res.SpeculatedDocs)
	}
	// Both arms see identical client demand.
	if res.Spec.AccessedBytes != res.Base.AccessedBytes {
		t.Error("arms diverged on accessed bytes")
	}
}

func TestTpSweepMonotonicity(t *testing.T) {
	site, tr := fixture(t)
	sched, err := BuildSchedule(tr, Baseline(site, 0))
	if err != nil {
		t.Fatal(err)
	}
	var prevBW = -1.0
	var prevLoad = 2.0
	for _, tp := range []float64{0.9, 0.5, 0.25, 0.1} {
		cfg := Baseline(site, tp)
		res, err := RunWithSchedule(tr, cfg, sched)
		if err != nil {
			t.Fatal(err)
		}
		// Lower thresholds speculate more: traffic rises, load falls.
		if res.Ratios.Bandwidth < prevBW-1e-9 {
			t.Errorf("Tp=%v: bandwidth ratio %v decreased from %v", tp, res.Ratios.Bandwidth, prevBW)
		}
		if res.Ratios.ServerLoad > prevLoad+1e-9 {
			t.Errorf("Tp=%v: load ratio %v increased from %v", tp, res.Ratios.ServerLoad, prevLoad)
		}
		prevBW = res.Ratios.Bandwidth
		prevLoad = res.Ratios.ServerLoad
	}
}

func TestEmbeddingOnlySpeculationNearlyFree(t *testing.T) {
	// §3.3: capitalizing on embedding dependencies (T_p ≈ 1) costs almost
	// no extra traffic, because embedded documents are certainly needed.
	// (0.95 rather than 0.99: the estimator's shrinkage keeps moderately
	// popular pages' embedding probabilities just below certainty.)
	res := run(t, Baseline(nil, 0.95))
	extra := res.Ratios.TrafficIncreasePct()
	if extra > 5 {
		t.Errorf("embedding-only speculation used %.1f%% extra traffic, want ≈0", extra)
	}
	if res.Ratios.ServerLoad >= 1 {
		t.Error("embedding-only speculation should still reduce load")
	}
}

func TestNoCacheStillBenefits(t *testing.T) {
	// §3.4: gains are possible even without any long-term client cache.
	cfg := Baseline(nil, 0.25)
	cfg.SessionTimeout = 30 * time.Minute // single-visit cache only
	res := run(t, cfg)
	if res.Ratios.ServerLoad >= 1 {
		t.Errorf("short-session clients got no benefit: %+v", res.Ratios)
	}
}

func TestInfiniteCacheShrinksRelativeGains(t *testing.T) {
	// §3.4: with an infinite multi-session cache the relative improvements
	// shrink compared to per-session caches (the cache already absorbs
	// revisits).
	perSession := Baseline(nil, 0.25)
	perSession.SessionTimeout = 60 * time.Minute
	rsSession := run(t, perSession)

	infinite := Baseline(nil, 0.25)
	rsInf := run(t, infinite)

	if rsInf.Ratios.ServerLoadReductionPct() > rsSession.Ratios.ServerLoadReductionPct()+10 {
		t.Errorf("infinite cache gains (%.1f%%) should not exceed session-cache gains (%.1f%%) by much",
			rsInf.Ratios.ServerLoadReductionPct(), rsSession.Ratios.ServerLoadReductionPct())
	}
}

func TestCooperativeSavesBandwidth(t *testing.T) {
	// §3.4: cooperative clients yield better bandwidth utilization at the
	// same speculation level.
	plain := Baseline(nil, 0.25)
	rp := run(t, plain)
	coop := Baseline(nil, 0.25)
	coop.Cooperative = true
	rc := run(t, coop)
	if rc.Ratios.Bandwidth > rp.Ratios.Bandwidth+1e-9 {
		t.Errorf("cooperative bandwidth %v worse than plain %v", rc.Ratios.Bandwidth, rp.Ratios.Bandwidth)
	}
	// Load gains must not be destroyed by cooperation.
	if rc.Ratios.ServerLoad > rp.Ratios.ServerLoad+0.05 {
		t.Errorf("cooperative load %v much worse than plain %v", rc.Ratios.ServerLoad, rp.Ratios.ServerLoad)
	}
}

func TestMaxSizeCapsTraffic(t *testing.T) {
	uncapped := Baseline(nil, 0.1)
	ru := run(t, uncapped)
	capped := Baseline(nil, 0.1)
	capped.MaxSize = 8 << 10
	rc := run(t, capped)
	if rc.Ratios.Bandwidth > ru.Ratios.Bandwidth+1e-9 {
		t.Errorf("MaxSize cap did not reduce traffic: %v vs %v", rc.Ratios.Bandwidth, ru.Ratios.Bandwidth)
	}
}

func TestHintsModeTradesLoadForBandwidth(t *testing.T) {
	// Server-assisted prefetching never wastes bandwidth (the client skips
	// cached documents and fetches only above its threshold), but each
	// prefetch is an individual request, so server load benefits less than
	// push mode at equal thresholds.
	push := Baseline(nil, 0.25)
	rPush := run(t, push)

	hints := Baseline(nil, 0.25)
	hints.Mode = speculation.ModeHints
	hints.PrefetchTp = 0.25
	rHints := run(t, hints)

	if rHints.PrefetchedDocs == 0 {
		t.Fatal("no prefetches happened")
	}
	if rHints.Ratios.Bandwidth > rPush.Ratios.Bandwidth+1e-9 {
		t.Errorf("hints mode used more bandwidth (%v) than push (%v)",
			rHints.Ratios.Bandwidth, rPush.Ratios.Bandwidth)
	}
	if rHints.Ratios.ServerLoad < rPush.Ratios.ServerLoad-1e-9 {
		t.Errorf("hints mode reduced load more (%v) than push (%v) — prefetches should cost requests",
			rHints.Ratios.ServerLoad, rPush.Ratios.ServerLoad)
	}
	// Miss rate still improves: prefetched documents are in cache.
	if rHints.Ratios.MissRate >= 1 {
		t.Errorf("hints mode did not improve miss rate: %v", rHints.Ratios.MissRate)
	}
}

func TestHybridBetweenPushAndHints(t *testing.T) {
	hybrid := Baseline(nil, 0.25)
	hybrid.Mode = speculation.ModeHybrid
	hybrid.EmbedThreshold = 0.95
	hybrid.PrefetchTp = 0.25
	r := run(t, hybrid)
	if r.SpeculatedDocs == 0 {
		t.Error("hybrid pushed nothing (embeddings should be pushed)")
	}
	if r.PrefetchedDocs == 0 {
		t.Error("hybrid hinted nothing")
	}
	if r.Ratios.ServerLoad >= 1 {
		t.Errorf("hybrid gave no load benefit: %v", r.Ratios.ServerLoad)
	}
}

func TestClosureAblation(t *testing.T) {
	// The closure admits chain dependencies the raw P misses; at equal
	// thresholds it speculates at least as much.
	withClosure := Baseline(nil, 0.25)
	rc := run(t, withClosure)
	rawP := Baseline(nil, 0.25)
	rawP.UseClosure = false
	rp := run(t, rawP)
	if rc.Ratios.Bandwidth < rp.Ratios.Bandwidth-1e-9 {
		t.Errorf("closure (%v) speculated less than raw P (%v)", rc.Ratios.Bandwidth, rp.Ratios.Bandwidth)
	}
}

func TestStalenessOrdering(t *testing.T) {
	// §3.4: a 60-day update cycle degrades performance relative to a 1-day
	// cycle (the dependencies drift).
	site, tr := fixture(t)
	fresh := Baseline(site, 0.25)
	fresh.UpdateCycle = 1
	rFresh, err := Run(tr, fresh)
	if err != nil {
		t.Fatal(err)
	}
	stale := Baseline(site, 0.25)
	stale.UpdateCycle = 60 // never refreshed within the 21-day trace
	rStale, err := Run(tr, stale)
	if err != nil {
		t.Fatal(err)
	}
	if rStale.Ratios.ServerLoadReductionPct() > rFresh.Ratios.ServerLoadReductionPct()+1e-9 {
		t.Errorf("stale estimates outperformed fresh ones: %.2f%% vs %.2f%%",
			rStale.Ratios.ServerLoadReductionPct(), rFresh.Ratios.ServerLoadReductionPct())
	}
}

func TestTopKPolicyRuns(t *testing.T) {
	cfg := Baseline(nil, 0.05)
	cfg.TopK = 2
	r := run(t, cfg)
	if r.SpeculatedDocs == 0 {
		t.Error("top-K policy speculated nothing")
	}
}

func TestScheduleAt(t *testing.T) {
	site, tr := fixture(t)
	cfg := Baseline(site, 0.25)
	sched, err := BuildSchedule(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last, _ := tr.Span()
	if sched.Cycles() < 20 {
		t.Errorf("expected ≈21 daily cycles, got %d", sched.Cycles())
	}
	// Times before the start clamp to the first matrix; after the end to
	// the last.
	if sched.At(first.Add(-time.Hour)) != sched.matrices[0] {
		t.Error("pre-start time not clamped")
	}
	if sched.At(last.Add(time.Hour)) != sched.matrices[len(sched.matrices)-1] {
		t.Error("post-end time not clamped")
	}
	// The first matrix has no history behind it: it must be empty, so no
	// speculation happens on day zero.
	if sched.matrices[0].NumPairs() != 0 {
		t.Error("day-0 matrix should be empty (no history yet)")
	}
	if sched.matrices[len(sched.matrices)-1].NumPairs() == 0 {
		t.Error("final matrix empty: estimation never learned anything")
	}
}

func TestConfigValidation(t *testing.T) {
	site, tr := fixture(t)
	bad := Baseline(site, 0.25)
	bad.Site = nil
	if _, err := Run(tr, bad); err == nil {
		t.Error("nil site accepted")
	}
	bad = Baseline(site, 0.25)
	bad.Window = 0
	if _, err := Run(tr, bad); err == nil {
		t.Error("zero window accepted")
	}
	bad = Baseline(site, 0.25)
	bad.HistoryLength = 0
	if _, err := Run(tr, bad); err == nil {
		t.Error("zero history accepted")
	}
	bad = Baseline(site, 1.5)
	if _, err := Run(tr, bad); err == nil {
		t.Error("Tp > 1 accepted")
	}
	bad = Baseline(site, 0.25)
	bad.Mode = speculation.ModeHybrid
	bad.EmbedThreshold = 0
	if _, err := Run(tr, bad); err == nil {
		t.Error("hybrid without embed threshold accepted")
	}
	bad = Baseline(site, 0.25)
	bad.Mode = speculation.ModeHints
	bad.PrefetchTp = -0.1
	if _, err := Run(tr, bad); err == nil {
		t.Error("negative prefetch threshold accepted")
	}
	if _, err := Run(&trace.Trace{}, Baseline(site, 0.25)); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := RunWithSchedule(tr, Baseline(site, 0.25), nil); err == nil {
		t.Error("nil schedule accepted")
	}
}

// TestModeString pins the names the simulator's modes print under in
// every table.
func TestModeString(t *testing.T) {
	if speculation.ModePush.String() != "push" || speculation.ModeHints.String() != "hints" ||
		speculation.ModeHybrid.String() != "hybrid" || speculation.Mode(9).String() == "" {
		t.Error("mode strings wrong")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, Baseline(nil, 0.25))
	b := run(t, Baseline(nil, 0.25))
	if a.Ratios != b.Ratios || a.SpeculatedDocs != b.SpeculatedDocs {
		t.Error("identical runs diverged")
	}
}

func TestMeasureFromExcludesWarmup(t *testing.T) {
	site, tr := fixture(t)
	first, last, _ := tr.Span()
	mid := first.Add(last.Sub(first) / 2)

	full := Baseline(site, 0.25)
	rFull, err := Run(tr, full)
	if err != nil {
		t.Fatal(err)
	}
	half := Baseline(site, 0.25)
	half.MeasureFrom = mid
	rHalf, err := Run(tr, half)
	if err != nil {
		t.Fatal(err)
	}
	if rHalf.Base.AccessedBytes >= rFull.Base.AccessedBytes {
		t.Errorf("warmup not excluded: %d vs %d accessed bytes",
			rHalf.Base.AccessedBytes, rFull.Base.AccessedBytes)
	}
	if rHalf.Spec.AccessedBytes != rHalf.Base.AccessedBytes {
		t.Error("arms diverged under MeasureFrom")
	}
	// Used deliveries cannot exceed counted deliveries.
	if rHalf.UsedDocs > rHalf.SpeculatedDocs+rHalf.PrefetchedDocs {
		t.Errorf("used %d > delivered %d", rHalf.UsedDocs, rHalf.SpeculatedDocs+rHalf.PrefetchedDocs)
	}
	// Everything after warmup still behaves: gains exist.
	if rHalf.Ratios.ServerLoad >= 1 {
		t.Errorf("no gains in measured window: %+v", rHalf.Ratios)
	}
	// Measuring from after the trace end yields empty tallies and neutral
	// ratios.
	never := Baseline(site, 0.25)
	never.MeasureFrom = last.Add(time.Hour)
	rNever, err := Run(tr, never)
	if err != nil {
		t.Fatal(err)
	}
	if rNever.Base.Requests != 0 || rNever.Ratios.ServerLoad != 1 {
		t.Errorf("post-trace MeasureFrom measured something: %+v", rNever.Base)
	}
}

// Property-style invariants over a grid of configurations: the speculative
// arm never sends fewer bytes than baseline (non-cooperative push), used ≤
// delivered, and accessed bytes agree across arms.
func TestRunInvariantsAcrossConfigs(t *testing.T) {
	site, tr := fixture(t)
	sched, err := BuildSchedule(tr, Baseline(site, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []float64{0.9, 0.5, 0.2, 0.05} {
		for _, maxSize := range []int64{0, 8 << 10} {
			for _, coop := range []bool{false, true} {
				cfg := Baseline(site, tp)
				cfg.MaxSize = maxSize
				cfg.Cooperative = coop
				res, err := RunWithSchedule(tr, cfg, sched)
				if err != nil {
					t.Fatal(err)
				}
				if res.Spec.AccessedBytes != res.Base.AccessedBytes {
					t.Fatalf("tp=%v maxSize=%d coop=%v: accessed bytes diverged", tp, maxSize, coop)
				}
				if res.Spec.BytesSent < res.Base.BytesSent {
					t.Errorf("tp=%v maxSize=%d coop=%v: spec sent fewer bytes than baseline", tp, maxSize, coop)
				}
				if res.UsedDocs > res.SpeculatedDocs {
					t.Errorf("tp=%v: used %d > speculated %d", tp, res.UsedDocs, res.SpeculatedDocs)
				}
				if res.Spec.Requests > res.Base.Requests {
					t.Errorf("tp=%v: push mode increased server load", tp)
				}
				if res.RepeatConversions+res.NovelConversions != res.UsedDocs {
					t.Errorf("tp=%v: conversion split %d+%d != used %d", tp,
						res.RepeatConversions, res.NovelConversions, res.UsedDocs)
				}
			}
		}
	}
}
