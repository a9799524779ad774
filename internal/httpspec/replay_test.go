package httpspec_test

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/loadgen"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience/faults"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// The tests in this file send traces through loadgen's drive loop against
// a live httpspec server: the one driver the repository has.

func TestReplayEndToEnd(t *testing.T) {
	w := httpspec.NewWorld(t, httpspec.ModePush)
	// Synthesize a small trace against the same site the server serves.
	scfg := synth.DefaultConfig(w.Site(), nil)
	scfg.Days = 2
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 30
	scfg.LocalClients = 5
	res, err := synth.Generate(scfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}

	run, winfo := driveTrace(t, loadgen.Config{
		Trace:              res.Trace,
		BaseURL:            w.URL(),
		Speculate:          true,
		Cooperative:        true,
		SessionGapRequests: -1,
	})
	if run.Counts.Errors != 0 {
		t.Errorf("%d replay errors against the server's own site", run.Counts.Errors)
	}
	if run.Counts.Requests != int64(res.Trace.Len()) {
		t.Errorf("replayed %d of %d requests", run.Counts.Requests, res.Trace.Len())
	}
	if run.Counts.CacheHits == 0 {
		t.Error("no cache hits during replay (revisits exist in any browsing trace)")
	}
	// The server's engine has been learning during the replay.
	if w.Server().Engine().Stats().Recorded == 0 {
		t.Error("server engine saw nothing")
	}
	if winfo.Clients != len(res.Trace.Clients()) {
		t.Errorf("clients %d != trace clients %d", winfo.Clients, len(res.Trace.Clients()))
	}
}

func TestReplaySessionPurge(t *testing.T) {
	w := httpspec.NewWorld(t, httpspec.ModePush)
	d := &w.Site().Docs[0]
	tr := &trace.Trace{}
	for i := 0; i < 6; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: w.Clock(), Client: "r1", Doc: d.ID, Path: d.Path, Size: d.Size,
		})
	}
	// Without purging: 1 miss + 5 hits. With purge every 2 requests: a
	// fresh fetch at each session start.
	run, _ := driveTrace(t, loadgen.Config{Trace: tr, BaseURL: w.URL(), SessionGapRequests: -1})
	if run.Counts.CacheHits != 5 {
		t.Errorf("no-purge hits = %d, want 5", run.Counts.CacheHits)
	}
	run, _ = driveTrace(t, loadgen.Config{Trace: tr, BaseURL: w.URL(), SessionGapRequests: 2})
	if run.Counts.CacheHits >= 5 {
		t.Errorf("session purge had no effect: %d hits", run.Counts.CacheHits)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, _, _, err := loadgen.Run(loadgen.Config{Trace: &trace.Trace{}}); err == nil {
		t.Error("empty trace accepted")
	}
	tr := &trace.Trace{Requests: []trace.Request{{Client: "a", Path: "/x"}}}
	if _, _, _, err := loadgen.Run(loadgen.Config{Trace: tr, Stream: true}); err == nil {
		t.Error("a supplied trace accepted as a stream")
	}
	scen := loadgen.Config{Trace: tr, Workload: experiments.SmallWorkload()}
	scen.Workload.Scenario = "crawler"
	if _, _, _, err := loadgen.Run(scen); err == nil {
		t.Error("a supplied trace accepted under a scenario overlay")
	}
}

func TestReplayCountsErrors(t *testing.T) {
	w := httpspec.NewWorld(t, httpspec.ModePush)
	tr := &trace.Trace{Requests: []trace.Request{
		{Time: w.Clock(), Client: "a", Path: "/definitely/missing"},
		{Time: w.Clock(), Client: "a", Path: w.Site().Docs[0].Path},
	}}
	run, _ := driveTrace(t, loadgen.Config{Trace: tr, BaseURL: w.URL()})
	if run.Counts.Errors != 1 {
		t.Errorf("errors = %d, want 1", run.Counts.Errors)
	}
}

func TestChaosReplayAvailability(t *testing.T) {
	// The acceptance bar: a 20% injected connection-error rate with
	// 4-attempt retries must keep request availability above 99%.
	w := httpspec.NewWorld(t, httpspec.ModePush)
	scfg := synth.DefaultConfig(w.Site(), nil)
	scfg.Days = 1
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 20
	scfg.LocalClients = 5
	res, err := synth.Generate(scfg, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	run, _ := driveTrace(t, loadgen.Config{
		Trace:              res.Trace,
		BaseURL:            w.URL(),
		Speculate:          true,
		SessionGapRequests: -1,
		Faults:             faults.Config{Seed: 42, ErrorRate: 0.2, Metrics: reg},
		Retry:              httpspec.FastRetry(4),
		Timeout:            10 * time.Second,
	})
	injected := reg.Counter("specweb_faults_injected_total", "", obs.Labels{"kind": "error"}).Value()
	if injected == 0 {
		t.Fatal("the injector never fired; the chaos run tested nothing")
	}
	c := run.Counts
	if c.Retries == 0 {
		t.Error("injected errors caused no retries")
	}
	if avail := float64(c.Requests-c.Errors) / float64(c.Requests); avail <= 0.99 {
		t.Errorf("availability = %.4f under 20%% faults, want > 0.99 (errors %d of %d)",
			avail, c.Errors, c.Requests)
	}
}

func TestReplaySummaryChaosFieldOptIn(t *testing.T) {
	// A fault-free report must serialize without any chaos field, so
	// fault-free runs stay byte-identical to earlier versions; a chaos run
	// says so. Neither grows a checkpoint section without a checkpoint
	// store.
	w := httpspec.NewWorld(t, httpspec.ModePush)
	tr := &trace.Trace{}
	for i := 0; i < 40; i++ {
		d := &w.Site().Docs[i%len(w.Site().Docs)]
		tr.Requests = append(tr.Requests, trace.Request{
			Time: w.Clock(), Client: trace.ClientID(fmt.Sprintf("c%d", i%4)), Path: d.Path,
		})
	}
	report := func(fc faults.Config) string {
		rep, err := loadgen.RunReport(loadgen.Config{
			Trace: tr, BaseURL: w.URL(), WarmupFraction: -1, Speculate: true,
			Faults: fc, Retry: httpspec.FastRetry(4),
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	clean := report(faults.Config{})
	if strings.Contains(clean, "chaos") {
		t.Errorf("fault-free report mentions chaos: %s", clean)
	}
	chaos := report(faults.Config{Seed: 3, ErrorRate: 0.2, Metrics: obs.NewRegistry()})
	if !strings.Contains(chaos, `"chaos": true`) {
		t.Errorf("chaos report does not say so: %s", chaos)
	}
	for name, s := range map[string]string{"fault-free": clean, "chaos": chaos} {
		if strings.Contains(s, "checkpoint") {
			t.Errorf("storeless %s report mentions checkpoint: %s", name, s)
		}
	}
}

// slowStore adds a fixed service delay per content fetch, making
// speculative pushes genuinely expensive so open-loop overload is
// reproducible on any machine.
type slowStore struct {
	httpspec.Store
	delay time.Duration
}

func (s slowStore) Content(id webgraph.DocID) ([]byte, bool) {
	time.Sleep(s.delay)
	return s.Store.Content(id)
}

// TestOpenLoopOverloadAcceptance is the overload acceptance bar: driven
// at roughly twice the speculative closed-loop saturation rate with the
// governor active, demand p99 must stay near the no-speculation baseline
// while at least 90% of everything shed is speculative-class work. Bounds
// are deliberately loose — the point is that the ladder sheds speculation,
// not demand.
func TestOpenLoopOverloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock open-loop run")
	}
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var page *webgraph.Document
	for i := range site.Docs {
		d := &site.Docs[i]
		if d.Kind == webgraph.Page && len(d.Embedded) > 0 {
			page = d
			break
		}
	}
	if page == nil {
		t.Fatal("no page with embedded objects")
	}
	// The store delay dominates per-request service time so that
	// scheduler noise on a busy test machine (a few ms) cannot flip
	// which side of saturation the run lands on.
	const delay = 10 * time.Millisecond

	// buildServer assembles a slow-store server; trained selects whether
	// the engine pushes (speculative run) or stays cold (baseline).
	buildServer := func(t *testing.T, trained bool) (*httpspec.Server, string, func()) {
		reg := obs.NewRegistry()
		cfg := httpspec.DefaultServerConfig()
		cfg.Mode = httpspec.ModePush
		cfg.Engine.MinOccurrences = 2
		cfg.Engine.Tp = 0.3
		cfg.Metrics = reg
		ctrl := overload.NewController(overload.Config{
			DemandSlots: 4, SpecSlots: 2,
			QueueDepth: 2048, MaxWait: 2 * time.Second,
			Metrics: reg,
		})
		cfg.Admission = ctrl
		cfg.Governor = overload.NewGovernor(overload.GovernorConfig{
			Target:   2*delay + delay/2,
			Alpha:    0.4,
			Hold:     25 * time.Millisecond,
			Pressure: ctrl.Pressure,
			Metrics:  reg,
		})
		srv, err := httpspec.NewServer(slowStore{Store: httpspec.NewSiteStore(site), delay: delay}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		if trained {
			for i := 0; i < 10; i++ {
				c := httpspec.NewClient(ts.URL, httpspec.ClientConfig{ID: "trainer"})
				if _, _, err := c.Get(page.Path); err != nil {
					t.Fatal(err)
				}
				for _, e := range page.Embedded {
					if _, _, err := c.Get(site.Doc(e).Path); err != nil {
						t.Fatal(err)
					}
				}
			}
			srv.Engine().Refresh(time.Now())
		}
		return srv, ts.URL, ts.Close
	}

	tr := &trace.Trace{}
	for i := 0; i < 400; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Client: trace.ClientID(fmt.Sprintf("open-%03d", i)),
			Path:   page.Path,
		})
	}
	// With 4 demand slots and (1+len(embedded))×10ms of store time per
	// speculative response, closed-loop speculative saturation is at
	// most 4/(2×10ms) = 200 req/s, so 250 req/s oversubscribes it —
	// while the no-speculation path (one 10ms store call per response,
	// 400 req/s capacity) keeps ~40% headroom even on a noisy machine.
	// Enough drivers that the server's admission queue, not the driver
	// pool, is where a backlog forms.
	drive := func(url string) *loadgen.Result {
		run, _ := driveTrace(t, loadgen.Config{
			Trace: tr, BaseURL: url, Speculate: true, Workers: 64,
			OpenLoop: true, Rate: 250, Burst: 8,
		})
		return run
	}

	_, baseURL, closeBase := buildServer(t, false)
	base := drive(baseURL)
	closeBase()

	srv, specURL, closeSpec := buildServer(t, true)
	spec := drive(specURL)
	closeSpec()

	ov := srv.OverloadStats()
	specShed, demandShed := ov.SpeculativeShed(), ov.DemandShed
	shedRatio := 1.0
	if total := specShed + demandShed; total > 0 {
		shedRatio = float64(specShed) / float64(total)
	}
	baseP99, specP99 := base.Timing.Latency.P99, spec.Timing.Latency.P99
	t.Logf("baseline p99 %.1fms; governed p99 %.1fms, shed %d spec / %d demand (ratio %.3f), max rung %d",
		baseP99, specP99, specShed, demandShed, shedRatio, ov.Governor.MaxRungSeen)
	if specShed == 0 {
		t.Fatal("governor never shed speculative work at 2x saturation")
	}
	if ov.Governor.MaxRungSeen < overload.RungNoPush {
		t.Errorf("ladder never climbed: max rung %d", ov.Governor.MaxRungSeen)
	}
	if shedRatio < 0.9 {
		t.Errorf("shed speculative ratio = %.3f, want >= 0.9 (shed must be speculation, not demand)", shedRatio)
	}
	// Loose deterministic bound on the latency claim: the governed run's
	// demand p99 must stay within a small multiple of the
	// no-speculation baseline instead of diverging toward the 2s queue
	// limit as an ungoverned overload would. The additive slack covers
	// the backlog built during the governor's climb (a few Hold
	// periods of oversubscribed arrivals draining at ~150 req/s).
	if limit := 3*baseP99 + 250; specP99 > limit {
		t.Errorf("governed demand p99 %.1fms exceeds %.1fms (3x baseline + 250ms slack)", specP99, limit)
	}
}
