package httpspec

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"specweb/internal/leakcheck"
	"specweb/internal/obs"
	"specweb/internal/stats"
	"specweb/internal/webgraph"
)

// TestServerMetricsExposition asserts that a server's /metrics output
// reflects the requests it actually served.
func TestServerMetricsExposition(t *testing.T) {
	leakcheck.Check(t)
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := DefaultServerConfig()
	cfg.Metrics = reg
	cfg.Tracer = obs.NewTracer(16)
	srv, err := NewServer(NewSiteStore(site), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const served = 3
	for i := 0; i < served; i++ {
		resp, err := http.Get(ts.URL + site.Docs[i].Path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/no/such/doc"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	mts := httptest.NewServer(reg.Handler())
	defer mts.Close()
	resp, err := http.Get(mts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	for _, want := range []string{
		"specweb_server_requests_total 3",
		"specweb_server_not_found_total 1",
		"specweb_server_request_seconds_count 3",
		"specweb_server_response_bytes_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	var wantBytes int64
	for i := 0; i < served; i++ {
		wantBytes += site.Docs[i].Size
	}
	if want := "specweb_server_bytes_sent_total " + strconv.FormatInt(wantBytes, 10); !strings.Contains(text, want) {
		t.Errorf("metrics output missing %q", want)
	}
}

// TestServerMetricsSpeculation asserts push-mode speculation shows up in
// the pushed-docs counter.
func TestServerMetricsSpeculation(t *testing.T) {
	reg := obs.NewRegistry()
	w := newWorldWithMetrics(t, ModePush, reg)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 4)

	c := NewClient(w.ts.URL, ClientConfig{ID: "viewer", AcceptBundles: true})
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	if cs := c.Stats(); cs.Pushed == 0 {
		t.Skip("training did not yield pushes on this seed")
	}

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	if !strings.Contains(text, "specweb_server_pushed_docs_total") ||
		strings.Contains(text, "specweb_server_pushed_docs_total 0\n") {
		t.Errorf("expected non-zero pushed docs counter, got:\n%s", text)
	}
	if !strings.Contains(text, "specweb_server_bundles_total 1") {
		t.Errorf("expected one bundle built, got:\n%s", text)
	}
}

// newWorldWithMetrics mirrors newWorld but isolates metrics in reg.
func newWorldWithMetrics(t *testing.T, mode Mode, reg *obs.Registry) *testWorld {
	t.Helper()
	leakcheck.Check(t)
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{
		site:  site,
		store: NewSiteStore(site),
		now:   time.Date(1995, time.June, 1, 9, 0, 0, 0, time.UTC),
	}
	cfg := DefaultServerConfig()
	cfg.Mode = mode
	cfg.Metrics = reg
	cfg.Tracer = obs.NewTracer(64)
	cfg.Engine.MinOccurrences = 2
	cfg.Engine.Tp = 0.3
	cfg.Engine.EmbedThreshold = 0.8
	cfg.Clock = func() time.Time {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.now
	}
	srv, err := NewServer(w.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.server = srv
	w.ts = httptest.NewServer(srv)
	t.Cleanup(w.ts.Close)
	return w
}

// TestReplaySummaryRatios checks the ratio arithmetic on hand-built stats.
func TestReplaySummaryRatios(t *testing.T) {
	s := &ReplayStats{
		Clients:      2,
		Requests:     10,
		CacheHits:    4,
		SpecHits:     2,
		Prefetched:   3,
		Pushed:       2,
		BytesIn:      9000,
		SpecHitBytes: 2000,
		DemandBytes:  10000,
		MissBytes:    6000,
		latencies:    []float64{0.001, 0.002, 0.003, 0.004, 0.010, 0.001},
		missDurSum:   0.019,
		missCount:    4,

		PrefetchRoundTrips: 1,
	}
	sum := s.Summary()
	// baseline bytes = 6000 + 2000 = 8000
	if sum.BaselineBytes != 8000 {
		t.Fatalf("baseline bytes = %d, want 8000", sum.BaselineBytes)
	}
	if got, want := sum.Ratios.Bandwidth, 9000.0/8000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("bandwidth ratio = %g, want %g", got, want)
	}
	// server load counts the one round trip the three prefetched
	// documents took, not the documents: (10-4+1)/(10-4+2) = 7/8
	if got, want := sum.Ratios.ServerLoad, 7.0/8.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("server load ratio = %g, want %g", got, want)
	}
	// byte miss rate: 6000/8000
	if got, want := sum.Ratios.ByteMissRate, 0.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("byte miss rate ratio = %g, want %g", got, want)
	}
	// service time: sum(lat)=0.021; baseline = 0.021 + 2*(0.019/4)
	wantST := 0.021 / (0.021 + 2*0.019/4)
	if got := sum.Ratios.ServiceTime; math.Abs(got-wantST) > 1e-9 {
		t.Errorf("service time ratio = %g, want %g", got, wantST)
	}
	if sum.LatencyMS.Max != 10 {
		t.Errorf("max latency = %gms, want 10", sum.LatencyMS.Max)
	}
	if sum.LatencyMS.P50 <= 0 || sum.LatencyMS.P99 < sum.LatencyMS.P50 {
		t.Errorf("implausible percentiles: %+v", sum.LatencyMS)
	}
}

// TestReplaySummaryEmpty keeps the degenerate case neutral.
func TestReplaySummaryEmpty(t *testing.T) {
	sum := (&ReplayStats{}).Summary()
	if sum.Ratios.Bandwidth != 1 || sum.Ratios.ServerLoad != 1 ||
		sum.Ratios.ServiceTime != 1 || sum.Ratios.ByteMissRate != 1 {
		t.Errorf("empty run should yield neutral ratios, got %+v", sum.Ratios)
	}
}
