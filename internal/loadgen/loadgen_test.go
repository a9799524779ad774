package loadgen

import (
	"bytes"
	"testing"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/leakcheck"
	"specweb/internal/netsim"
	"specweb/internal/webgraph"
)

// tinyConfig is a sub-second workload: a 20-page site over two days.
func tinyConfig() Config {
	return Config{
		Workload: experiments.WorkloadConfig{
			Profile:        webgraph.TinySite(),
			Net:            netsim.TinyConfig(),
			Days:           2,
			SessionsPerDay: 30,
			Seed:           7,
		},
		Speculate: true,
		Mode:      httpspec.ModePush,
		Workers:   3,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, _, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasics(t *testing.T) {
	leakcheck.Check(t)
	res, winfo, cinfo, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if winfo.Measured <= 0 || winfo.Warmup <= 0 {
		t.Fatalf("bad phase split: %+v", winfo)
	}
	if cinfo.Mode != "push" || cinfo.Workers != 3 {
		t.Fatalf("config echo wrong: %+v", cinfo)
	}
	c := res.Counts
	if c.Requests != int64(winfo.Measured) {
		t.Errorf("measured %d requests, trace says %d", c.Requests, winfo.Measured)
	}
	if c.Errors != 0 || c.WarmupErrors != 0 || c.Shed != 0 {
		t.Errorf("fault-free run had errors: %+v", c)
	}
	if c.SpecHits == 0 || c.Pushed == 0 {
		t.Errorf("speculative arm produced no speculation: %+v", c)
	}
	if c.BaselineBytes != c.MissBytes+c.SpecHitBytes {
		t.Error("baseline bytes identity broken")
	}
	if res.Ratios.ServerLoad >= 1 || res.Ratios.ByteMissRate >= 1 {
		t.Errorf("speculation did not help: %+v", res.Ratios)
	}
	if res.Ratios.Bandwidth < 1 {
		t.Errorf("speculation cannot reduce raw bandwidth: %+v", res.Ratios)
	}
	tm := res.Timing
	if tm == nil || tm.Throughput <= 0 || tm.Latency.P99 <= 0 || len(tm.Histogram) == 0 {
		t.Fatalf("timing section incomplete: %+v", tm)
	}
	if tm.ServiceTime >= 1 {
		t.Errorf("service time ratio %v, want < 1 with spec hits", tm.ServiceTime)
	}
}

// TestRunDeterministicAcrossWorkers is the heart of the bench design:
// the deterministic section may not depend on concurrency. Different
// worker counts partition clients differently and interleave requests
// arbitrarily, yet every counter must come out identical because the
// speculation model is frozen at the warmup boundary.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	leakcheck.Check(t)
	var first []byte
	for _, workers := range []int{1, 3, 8} {
		cfg := tinyConfig()
		cfg.Workers = workers
		rep, err := RunReport(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		rep.Config.Workers = 0 // the echo legitimately differs
		b, err := rep.DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("workers=%d changed the deterministic section:\n%s\n--- vs ---\n%s",
				workers, first, b)
		}
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	leakcheck.Check(t)
	a, err := RunReport(tinyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReport(tinyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.DeterministicJSON()
	bj, _ := b.DeterministicJSON()
	if !bytes.Equal(aj, bj) {
		t.Fatalf("repeat run drifted:\n%s\n--- vs ---\n%s", aj, bj)
	}
}

// Open-loop pacing changes timing, not outcomes: with the engine frozen
// the per-client request sequences decide every counter.
func TestOpenLoopMatchesClosedLoopCounts(t *testing.T) {
	leakcheck.Check(t)
	closed := mustRun(t, tinyConfig())
	open := tinyConfig()
	open.OpenLoop = true
	open.Rate = 20000
	open.Burst = 8
	openRes := mustRun(t, open)
	if closed.Counts != openRes.Counts {
		t.Fatalf("open-loop counts differ from closed-loop:\n%+v\n%+v",
			closed.Counts, openRes.Counts)
	}
}

func TestBaselineArmHasNoSpeculation(t *testing.T) {
	leakcheck.Check(t)
	cfg := tinyConfig()
	cfg.Speculate = false
	res := mustRun(t, cfg)
	c := res.Counts
	if c.Pushed != 0 || c.Prefetched != 0 || c.SpecHits != 0 || c.SpecHitBytes != 0 {
		t.Fatalf("baseline arm speculated: %+v", c)
	}
	if r := res.Ratios; r.Bandwidth != 1 || r.ServerLoad != 1 || r.ByteMissRate != 1 {
		t.Fatalf("baseline arm ratios not unity: %+v", r)
	}
}

func TestRunReportTwoArms(t *testing.T) {
	leakcheck.Check(t)
	rep, err := RunReport(tinyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || rep.Spec == nil || rep.Baseline == nil {
		t.Fatalf("incomplete report: %+v", rep)
	}
	if rep.Relative == nil || rep.Relative.ThroughputRatio <= 0 || rep.Relative.P99Ratio <= 0 {
		t.Fatalf("missing relative section: %+v", rep.Relative)
	}
	if rep.Baseline.Counts.Requests != rep.Spec.Counts.Requests {
		t.Error("arms measured different request counts")
	}
	// A fresh identical run must pass its own gate.
	if v := Compare(rep, rep, CompareOptions{}); len(v) != 0 {
		t.Fatalf("self-comparison failed: %v", v)
	}
}

func TestThinkTimeSlowsClosedLoop(t *testing.T) {
	leakcheck.Check(t)
	cfg := tinyConfig()
	cfg.Workload.SessionsPerDay = 5 // keep the request count tiny
	fast := mustRun(t, cfg)
	cfg.Think = 2 * time.Millisecond
	cfg.ThinkJitter = time.Millisecond
	slow := mustRun(t, cfg)
	if fast.Counts != slow.Counts {
		t.Error("think time changed deterministic counts")
	}
	if slow.Timing.Throughput >= fast.Timing.Throughput {
		t.Errorf("think time did not lower throughput: %v >= %v",
			slow.Timing.Throughput, fast.Timing.Throughput)
	}
}

// TestPrefetchHintsAreCalibrated holds the engine to the probabilities it
// advertises, on the default operating point (small department site, hybrid,
// hints followed from 0.25): of the prefetches delivered on hints of one
// decile, the share consumed may not fall more than 0.05 short of the
// decile's lower edge. An estimator fed its own prefetches as if users had
// made them fails this — a followed hint confirms itself, and hints
// advertised at 0.5 come true a fifth of the time.
func TestPrefetchHintsAreCalibrated(t *testing.T) {
	leakcheck.Check(t)
	res := mustRun(t, Config{
		Workload:          experiments.SmallWorkload(),
		Speculate:         true,
		Mode:              httpspec.ModeHybrid,
		PrefetchThreshold: 0.25,
	})
	cal, ok := res.Attrib.Calibration[attrib.ClassPrefetch]
	if !ok {
		t.Fatalf("no prefetch calibration in %+v", res.Attrib)
	}
	var total, judged int64
	for i, b := range cal {
		total += b.Deliveries
		if b.Deliveries < 200 {
			continue // too few to hold a frequency against a probability
		}
		judged++
		lower := float64(i) / 10
		got := float64(b.Consumed) / float64(b.Deliveries)
		t.Logf("advertised [%.1f, %.1f): %d of %d consumed = %.3f", lower, lower+0.1, b.Consumed, b.Deliveries, got)
		if got < lower-0.05 {
			t.Errorf("hints advertised at [%.1f, %.1f) were consumed %.3f of the time (%d of %d)",
				lower, lower+0.1, got, b.Consumed, b.Deliveries)
		}
	}
	if judged < 4 {
		t.Errorf("only %d deciles hold 200 deliveries: the run exercises too little", judged)
	}
	// Every prefetch is in the table: drained, resolved by a client that
	// knows what its hint said.
	if pf := res.Attrib.Classes[attrib.ClassPrefetch]; total != pf.Deliveries || res.Attrib.Outstanding != 0 {
		t.Errorf("table holds %d prefetches, ledger %d (outstanding %d)", total, pf.Deliveries, res.Attrib.Outstanding)
	}
}
