package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/httpspec"
	"specweb/internal/markov"
)

// ReportSchema versions the BENCH.json layout.
const ReportSchema = "specbench/1"

// Report is the BENCH.json document: one or two arms (speculative and,
// when requested, a no-speculation baseline run of the same workload).
// Everything outside the Timing sections is deterministic for a given
// config and seed — byte-identical across runs, machines and worker
// counts — so regression gates can hold those fields to zero drift.
type Report struct {
	Schema   string       `json:"schema"`
	Config   ConfigInfo   `json:"config"`
	Workload WorkloadInfo `json:"workload"`
	Spec     *Result      `json:"spec"`
	Baseline *Result      `json:"baseline,omitempty"`
}

// ConfigInfo echoes the generator configuration into the report.
type ConfigInfo struct {
	Profile            string  `json:"profile"`
	Days               int     `json:"days"`
	SessionsPerDay     float64 `json:"sessions_per_day"`
	Seed               int64   `json:"seed"`
	Workers            int     `json:"workers"`
	WarmupFraction     float64 `json:"warmup_fraction"`
	Mode               string  `json:"mode"`
	MaxPush            int     `json:"max_push"`
	Cooperative        bool    `json:"cooperative"`
	PrefetchThreshold  float64 `json:"prefetch_threshold"`
	SessionGapRequests int     `json:"session_gap_requests"`
	OpenLoop           bool    `json:"open_loop"`
	Rate               float64 `json:"rate,omitempty"`
	Burst              int     `json:"burst,omitempty"`
	ThinkMS            float64 `json:"think_ms,omitempty"`
	RealClock          bool    `json:"real_clock,omitempty"`
	Network            bool    `json:"network,omitempty"`
	Chaos              bool    `json:"chaos,omitempty"`
	Overload           bool    `json:"overload,omitempty"`
	Scenario           string  `json:"scenario,omitempty"`
	Estguard           bool    `json:"estguard,omitempty"`
	// MaxRows and RowTopK echo the bounded-estimator caps; absent (0)
	// for exact-estimator runs, so existing reports stay byte-identical.
	MaxRows int `json:"max_rows,omitempty"`
	RowTopK int `json:"row_topk,omitempty"`
	// Restart echoes the kill/restart harness configuration; absent for
	// ordinary runs, so existing reports stay byte-identical.
	Restart *RestartConfig `json:"restart,omitempty"`
	// Stream marks a run that drove the workload from per-client seeded
	// cursors instead of a materialized trace; absent (false) for
	// materialized runs, so existing reports stay byte-identical.
	Stream bool `json:"stream,omitempty"`
}

// WorkloadInfo describes the generated workload.
type WorkloadInfo struct {
	Pages    int   `json:"pages"`
	Clients  int   `json:"clients"`
	Trace    int   `json:"trace_requests"`
	Warmup   int   `json:"warmup_requests"`
	Measured int   `json:"measured_requests"`
	Bytes    int64 `json:"site_bytes"`
}

// Result is one arm's outcome: deterministic counters and ratios plus
// the wall-clock Timing section.
type Result struct {
	Counts Counts `json:"counts"`
	Ratios Ratios `json:"ratios"`
	// Overload is the server's admission/governor ledger, present when
	// the run installed overload control on the in-process server.
	Overload *httpspec.ServerOverloadStats `json:"overload,omitempty"`
	// Attrib is the speculation attribution report for the arm: consumed
	// vs wasted speculative bytes by delivery class, with top-K per-doc
	// rows. Outstanding deliveries are resolved before the report is
	// taken, and the ledger is sized to the whole site, so the section is
	// deterministic — part of the byte-identical fingerprint.
	Attrib *attrib.Report `json:"attrib,omitempty"`
	// Estguard summarizes the estimator-hardening guard's decisions,
	// present when the arm ran with Config.Estguard. Every field is a
	// function of the recorded trace and the seed, so the section is part
	// of the byte-identical fingerprint.
	Estguard *EstguardInfo `json:"estguard,omitempty"`
	// Estimator is the bounded estimator's footprint and eviction ledger
	// at the measurement freeze, present when the arm ran with
	// MaxRows/RowTopK set. Deterministic — every field is a function of
	// the warmup trace — and omitted for exact-estimator runs so those
	// reports stay byte-identical.
	Estimator *markov.EstimatorStats `json:"estimator,omitempty"`
	// Checkpoint carries the durable-state counters when the arm ran
	// with checkpointing (the restart harness); deterministic, and
	// omitted — byte-identically — when checkpointing is off.
	Checkpoint *checkpoint.Counters `json:"checkpoint,omitempty"`
	// Restart is the per-phase crash ledger of a restart-harness arm.
	Restart *RestartInfo `json:"restart,omitempty"`
	Timing  *Timing      `json:"timing,omitempty"`
}

// EstguardInfo is the guard's deterministic decision ledger for one arm.
type EstguardInfo struct {
	QuarantinedClients  int64   `json:"quarantined_clients"`
	QuarantinedRequests int64   `json:"quarantined_requests"`
	Promotions          int64   `json:"promotions,omitempty"`
	Demotions           int64   `json:"demotions,omitempty"`
	Refreshes           int64   `json:"refreshes"`
	EarlyRefreshes      int64   `json:"early_refreshes,omitempty"`
	SnapshotsRejected   int64   `json:"snapshots_rejected,omitempty"`
	ForcedAccepts       int64   `json:"forced_accepts,omitempty"`
	DriftScore          float64 `json:"drift_score,omitempty"`
}

// Counts are the measurement-phase totals summed over all clients
// (warmup activity is subtracted out). All are deterministic under the
// virtual clock.
type Counts struct {
	Requests           int64 `json:"requests"`
	WarmupErrors       int64 `json:"warmup_errors"`
	CacheHits          int64 `json:"cache_hits"`
	SpecHits           int64 `json:"spec_hits"`
	Pushed             int64 `json:"pushed"`
	Prefetched         int64 `json:"prefetched"`
	PrefetchRoundTrips int64 `json:"prefetch_round_trips"`
	Errors             int64 `json:"errors"`
	Shed               int64 `json:"shed"`
	Retries            int64 `json:"retries"`
	StaleServes        int64 `json:"stale_serves"`
	BytesIn            int64 `json:"bytes_in"`
	DemandBytes        int64 `json:"demand_bytes"`
	MissBytes          int64 `json:"miss_bytes"`
	SpecHitBytes       int64 `json:"spec_hit_bytes"`
	BaselineBytes      int64 `json:"baseline_bytes"`
}

// Ratios are the count-based paper ratios (Figs. 5–6): speculative
// service over the non-speculative baseline the same session caches
// would have seen. The fourth paper ratio — service time — is wall-clock
// by nature and lives in Timing.ServiceTime.
type Ratios struct {
	Bandwidth    float64 `json:"bandwidth"`
	ServerLoad   float64 `json:"server_load"`
	ByteMissRate float64 `json:"byte_miss_rate"`
}

// Timing is the wall-clock section: excluded from the deterministic
// fingerprint and from every gate.
type Timing struct {
	DurationSeconds float64      `json:"duration_seconds"`
	Throughput      float64      `json:"throughput_rps"`
	Latency         Quantiles    `json:"latency_ms"`
	ServiceTime     float64      `json:"service_time"`
	Histogram       []HistBucket `json:"histogram,omitempty"`
	// Memory records the process heap at report time. It lives inside
	// Timing — machine- and GC-schedule-dependent — so Deterministic()
	// strips it and Compare ignores it.
	Memory *MemoryInfo `json:"memory,omitempty"`
}

// MemoryInfo is a runtime.ReadMemStats snapshot taken when the arm's
// report is assembled: live heap bytes and total bytes obtained from the
// OS. The streaming memory gate reads these to prove the cursor path's
// O(workers + sessions) footprint against the materialized trace.
type MemoryInfo struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
}

// Quantiles are latency percentiles in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// heapNow forces a collection and snapshots the process heap.
func heapNow() *MemoryInfo {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &MemoryInfo{HeapAllocBytes: ms.HeapAlloc, SysBytes: ms.Sys}
}

// quantiles extracts the report percentiles from a histogram.
func quantiles(h *Hist) Quantiles {
	ms := func(d float64) float64 { return d / 1e6 }
	return Quantiles{
		P50:  ms(float64(h.Quantile(0.50))),
		P90:  ms(float64(h.Quantile(0.90))),
		P99:  ms(float64(h.Quantile(0.99))),
		P999: ms(float64(h.Quantile(0.999))),
		Mean: ms(float64(h.Mean())),
		Max:  ms(float64(h.Max())),
	}
}

// Deterministic returns the report with every wall-clock field removed:
// the portion that must be byte-identical across runs of one config.
func (r *Report) Deterministic() *Report {
	out := *r
	strip := func(res *Result) *Result {
		if res == nil {
			return nil
		}
		c := *res
		c.Timing = nil
		return &c
	}
	out.Spec = strip(r.Spec)
	out.Baseline = strip(r.Baseline)
	return &out
}

// DeterministicJSON marshals the deterministic portion, indented.
func (r *Report) DeterministicJSON() ([]byte, error) {
	return json.MarshalIndent(r.Deterministic(), "", "  ")
}

// JSON marshals the full report, indented.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Compare gates current against baseline, returning one message per
// violated bound (empty means the gate passes). Deterministic counts and
// ratios must stay within tolerancePct percent (default 10); errors and
// shed may not appear where the baseline had none. Wall-clock timing is
// not gated here: benchmark/run.sh and its history are the timing record.
func Compare(baseline, current *Report, tolerancePct float64) []string {
	g := newGate(tolerancePct, baseline.Schema, current.Schema)
	fail, relDrift := g.fail, g.drift
	arm := func(name string, base, cur *Result) {
		if base == nil || cur == nil {
			if base != cur {
				fail("%s arm present in only one report", name)
			}
			return
		}
		relDrift(name+".counts.requests", float64(base.Counts.Requests), float64(cur.Counts.Requests))
		relDrift(name+".counts.bytes_in", float64(base.Counts.BytesIn), float64(cur.Counts.BytesIn))
		relDrift(name+".counts.spec_hits", float64(base.Counts.SpecHits), float64(cur.Counts.SpecHits))
		if base.Counts.Errors == 0 && cur.Counts.Errors > 0 {
			fail("%s.counts.errors: baseline had none, current has %d", name, cur.Counts.Errors)
		}
		if base.Counts.Shed == 0 && cur.Counts.Shed > 0 {
			fail("%s.counts.shed: baseline had none, current has %d", name, cur.Counts.Shed)
		}
		relDrift(name+".ratios.bandwidth", base.Ratios.Bandwidth, cur.Ratios.Bandwidth)
		relDrift(name+".ratios.server_load", base.Ratios.ServerLoad, cur.Ratios.ServerLoad)
		relDrift(name+".ratios.byte_miss_rate", base.Ratios.ByteMissRate, cur.Ratios.ByteMissRate)
	}
	arm("spec", baseline.Spec, current.Spec)
	arm("baseline", baseline.Baseline, current.Baseline)
	return g.v
}

// gate collects the violations of one baseline-vs-current comparison.
type gate struct {
	tolerancePct float64
	v            []string
}

// newGate defaults the tolerance (10%) and requires matching schemas.
func newGate(tolerancePct float64, baseSchema, curSchema string) *gate {
	if tolerancePct <= 0 {
		tolerancePct = 10
	}
	g := &gate{tolerancePct: tolerancePct}
	if baseSchema != curSchema {
		g.fail("schema changed: %s -> %s", baseSchema, curSchema)
	}
	return g
}

func (g *gate) fail(format string, args ...any) {
	g.v = append(g.v, fmt.Sprintf(format, args...))
}

// drift fails when cur moved away from base, relative to |base|, by more
// than the tolerance.
func (g *gate) drift(name string, base, cur float64) {
	if base == 0 && cur == 0 {
		return
	}
	den := math.Abs(base)
	if den == 0 {
		den = 1
	}
	if d := math.Abs(cur-base) / den; d > g.tolerancePct/100 {
		g.fail("%s drifted %.1f%% (baseline %.6g, current %.6g, tolerance %.0f%%)",
			name, d*100, base, cur, g.tolerancePct)
	}
}
