package loadgen

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Schema: ReportSchema,
		Config: ConfigInfo{Profile: "tiny", Seed: 7, Workers: 4, Mode: "hybrid"},
		Workload: WorkloadInfo{
			Pages: 20, Clients: 10, Trace: 300, Warmup: 90, Measured: 210,
		},
		Spec: &Result{
			Counts: Counts{Requests: 210, CacheHits: 60, SpecHits: 30,
				BytesIn: 1 << 20, MissBytes: 700 << 10, SpecHitBytes: 200 << 10,
				BaselineBytes: 900 << 10},
			Ratios: Ratios{Bandwidth: 1.16, ServerLoad: 0.85, ByteMissRate: 0.78},
			Timing: &Timing{DurationSeconds: 0.5, Throughput: 420,
				Latency: Quantiles{P50: 0.2, P99: 1.5}, ServiceTime: 0.8},
		},
		Baseline: &Result{
			Counts: Counts{Requests: 210, CacheHits: 55},
			Ratios: Ratios{Bandwidth: 1, ServerLoad: 1, ByteMissRate: 1},
			Timing: &Timing{DurationSeconds: 0.6, Throughput: 350,
				Latency: Quantiles{P50: 0.3, P99: 2.0}},
		},
	}
}

func TestDeterministicJSONStripsTiming(t *testing.T) {
	b, err := sampleReport().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, banned := range []string{"timing", "throughput_rps", "p99_ratio", "duration"} {
		if strings.Contains(s, banned) {
			t.Errorf("deterministic JSON contains wall-clock field %q", banned)
		}
	}
	if !strings.Contains(s, "\"requests\": 210") || !strings.Contains(s, "\"bandwidth\": 1.16") {
		t.Error("deterministic JSON lost counts or ratios")
	}
	// Stripping must not mutate the original.
	if sampleReport().Spec.Timing == nil {
		t.Fatal("sample construction broken")
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("deterministic JSON does not round-trip: %v", err)
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	if v := Compare(sampleReport(), sampleReport(), 0); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}
}

func TestCompareCatchesCountDrift(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Counts.Requests = 260 // +24%
	v := Compare(sampleReport(), cur, 0)
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "requests") {
		t.Fatalf("24%% request drift not flagged: %v", v)
	}
}

func TestCompareCatchesNewErrors(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Counts.Errors = 3
	v := Compare(sampleReport(), cur, 0)
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "errors") {
		t.Fatalf("new errors not flagged: %v", v)
	}
}

func TestCompareCatchesRatioDrift(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Ratios.ServerLoad = 1.05 // was 0.85: speculation stopped helping
	v := Compare(sampleReport(), cur, 0)
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "server_load") {
		t.Fatalf("server_load drift not flagged: %v", v)
	}
}

// TestCompareIgnoresTiming: the gate holds counts and ratios only; a
// slower run on a slower machine is not a regression of the protocol.
func TestCompareIgnoresTiming(t *testing.T) {
	cur := sampleReport()
	cur.Spec.Timing.Throughput = 100 // -76%
	cur.Spec.Timing.Latency.P99 = 50
	if v := Compare(sampleReport(), cur, 0); len(v) != 0 {
		t.Fatalf("wall-clock timing gated: %v", v)
	}
}
