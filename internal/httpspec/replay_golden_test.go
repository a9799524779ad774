package httpspec

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"specweb/internal/attrib"
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

// TestReplaySummaryGolden pins what cmd/replay reports for a fixed seeded
// trace: one closed-loop replay trains the server's engine, an explicit
// refresh freezes the model, and the summary of a second replay (hybrid,
// cooperative, prefetching, attribution on) must equal the golden in every
// field that is not wall-clock. This is the identity gate a fold of
// Replay's drive loop into loadgen has to keep.
func TestReplaySummaryGolden(t *testing.T) {
	w := newWorld(t, ModeHybrid)
	scfg := synth.DefaultConfig(w.site, nil)
	scfg.Days = 2
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 30
	scfg.LocalClients = 5
	res, err := synth.Generate(scfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{
		Base:               w.ts.URL,
		AcceptBundles:      true,
		Cooperative:        true,
		PrefetchThreshold:  0.3,
		SessionGapRequests: 20,
		Attrib:             true,
	}
	if _, err := Replay(res.Trace, cfg); err != nil {
		t.Fatal(err)
	}
	w.advance(time.Hour)
	w.server.Engine().Refresh(w.clock())

	rs, err := Replay(res.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := rs.Summary()
	if sum.SpecHits == 0 || sum.Pushed == 0 || sum.Prefetched == 0 || sum.Attrib == nil {
		t.Fatalf("run exercises too little to be worth pinning: %+v", sum)
	}
	sum.LatencyMS = LatencySummary{}
	sum.Ratios.ServiceTime = 0
	sum.Attrib = &attrib.Report{Totals: sum.Attrib.Totals}
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
	var a, b ClientStats
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
// a reset can leave a baseline negative; every ratio then reads 1, in the
// replay summary exactly as in specbench (the two guards used to differ).
func TestPaperRatiosNegativeBaselineIsNeutral(t *testing.T) {
	r := ClientStats{Fetches: 2, CacheHits: 5, BytesIn: 10, MissBytes: -5}.PaperRatios(-1, 0, 0)
	if r != (PaperRatios{Bandwidth: 1, ServerLoad: 1, ServiceTime: 1, ByteMissRate: 1}) {
		t.Errorf("negative baselines should read neutral, got %+v", r)
	}
}
