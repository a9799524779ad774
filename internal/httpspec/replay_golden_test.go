package httpspec_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/httpspec"
	"specweb/internal/loadgen"
	"specweb/internal/stats"
	"specweb/internal/synth"
)

// replaySummaryGolden is the deterministic part of the summary of
// TestReplaySummaryGolden's second replay: counts, the three count
// ratios and the attribution totals. It moves only when the protocol,
// the engine's decisions or the ratio definition move.
const replaySummaryGolden = `{
  "clients": 19,
  "requests": 481,
  "errors": 0,
  "cache_hits": 403,
  "spec_hits": 321,
  "pushed": 33,
  "prefetched": 757,
  "prefetch_round_trips": 18,
  "bytes_in": 4512609,
  "demand_bytes": 2525556,
  "baseline_bytes": 2177715,
  "ratios": {
    "bandwidth": 2.072176111199124,
    "server_load": 0.24060150375939848,
    "service_time": 0,
    "byte_miss_rate": 0.29003978941229686
  },
  "latency_ms": {
    "p50": 0,
    "p90": 0,
    "p99": 0,
    "mean": 0,
    "max": 0
  },
  "attrib": {
    "totals": {
      "deliveries": 790,
      "delivered_bytes": 3880985,
      "consumed": 321,
      "consumed_bytes": 1546091,
      "wasted": 469,
      "wasted_bytes": 2334894,
      "p_milli_sum": 352648
    },
    "outstanding": 0,
    "tracked_docs": 0
  }
}`

// replaySummary is the shape the golden was recorded in: one closed-loop
// drive's counts, the paper ratios, an always-zero latency block (the
// golden strips wall-clock fields) and the attribution totals.
type replaySummary struct {
	Clients            int                  `json:"clients"`
	Requests           int64                `json:"requests"`
	Errors             int64                `json:"errors"`
	CacheHits          int64                `json:"cache_hits"`
	SpecHits           int64                `json:"spec_hits"`
	Pushed             int64                `json:"pushed"`
	Prefetched         int64                `json:"prefetched"`
	PrefetchRoundTrips int64                `json:"prefetch_round_trips"`
	BytesIn            int64                `json:"bytes_in"`
	DemandBytes        int64                `json:"demand_bytes"`
	BaselineBytes      int64                `json:"baseline_bytes"`
	Ratios             httpspec.PaperRatios `json:"ratios"`
	LatencyMS          struct {
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`
	Attrib *attrib.Report `json:"attrib,omitempty"`
}

// summarize is the deterministic part of a whole-trace drive.
func summarize(res *loadgen.Result, clients int) replaySummary {
	c := res.Counts
	sum := replaySummary{
		Clients: clients, Requests: c.Requests, Errors: c.Errors,
		CacheHits: c.CacheHits, SpecHits: c.SpecHits, Pushed: c.Pushed,
		Prefetched: c.Prefetched, PrefetchRoundTrips: c.PrefetchRoundTrips,
		BytesIn: c.BytesIn, DemandBytes: c.DemandBytes, BaselineBytes: c.BaselineBytes,
		Ratios: httpspec.PaperRatios{
			Bandwidth:    res.Ratios.Bandwidth,
			ServerLoad:   res.Ratios.ServerLoad,
			ByteMissRate: res.Ratios.ByteMissRate,
		},
	}
	if res.Attrib != nil {
		sum.Attrib = &attrib.Report{Totals: res.Attrib.Totals}
	}
	return sum
}

// driveTrace sends a whole trace, no warmup, through loadgen's drive loop
// against a live server: the way every test here replays a trace.
func driveTrace(t *testing.T, cfg loadgen.Config) (*loadgen.Result, *loadgen.WorkloadInfo) {
	t.Helper()
	cfg.WarmupFraction = -1
	res, winfo, _, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, winfo
}

// TestReplaySummaryGolden pins what a drive of a fixed seeded trace
// reports: one closed-loop drive trains the server's engine, an explicit
// refresh freezes the model, and the summary of a second drive (hybrid,
// cooperative, prefetching, attribution on) must equal the golden in every
// field that is not wall-clock. The golden was recorded by the replay
// driver loadgen replaced, and must not move by one byte.
func TestReplaySummaryGolden(t *testing.T) {
	w := httpspec.NewWorld(t, httpspec.ModeHybrid)
	scfg := synth.DefaultConfig(w.Site(), nil)
	scfg.Days = 2
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 30
	scfg.LocalClients = 5
	res, err := synth.Generate(scfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadgen.Config{
		Trace:              res.Trace,
		BaseURL:            w.URL(),
		Workers:            1,
		Speculate:          true,
		Mode:               httpspec.ModeHybrid,
		Cooperative:        true,
		PrefetchThreshold:  0.3,
		SessionGapRequests: 20,
	}
	driveTrace(t, cfg)
	w.Advance(time.Hour)
	w.Server().Engine().Refresh(w.Clock())

	run, winfo := driveTrace(t, cfg)
	sum := summarize(run, winfo.Clients)
	if sum.SpecHits == 0 || sum.Pushed == 0 || sum.Prefetched == 0 || sum.Attrib == nil {
		t.Fatalf("run exercises too little to be worth pinning: %+v", sum)
	}
	got, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != replaySummaryGolden {
		t.Errorf("replay summary moved:\n%s\n--- want ---\n%s", got, replaySummaryGolden)
	}
}

// TestClientStatsAddSubCoverEveryField: Add and Sub share one field list;
// a counter added to ClientStats but not to that list would silently drop
// out of every report's totals.
func TestClientStatsAddSubCoverEveryField(t *testing.T) {
	var a, b httpspec.ClientStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(100 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	sum, diff := reflect.ValueOf(a.Add(b)), reflect.ValueOf(a.Sub(b))
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if got, want := sum.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
		if got, want := diff.Field(i).Int(), int64(99*(i+1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
	}
}

// TestPaperRatiosNegativeBaselineIsNeutral: a counter delta taken across
// a reset can leave a baseline negative; every ratio then reads 1.
func TestPaperRatiosNegativeBaselineIsNeutral(t *testing.T) {
	r := httpspec.ClientStats{Fetches: 2, CacheHits: 5, BytesIn: 10, MissBytes: -5}.PaperRatios(-1, 0, 0)
	if r != (httpspec.PaperRatios{Bandwidth: 1, ServerLoad: 1, ServiceTime: 1, ByteMissRate: 1}) {
		t.Errorf("negative baselines should read neutral, got %+v", r)
	}
}
