package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/httpspec"
	"specweb/internal/overload"
)

// PartialSchema versions the partial-report wire layout exchanged
// between specbench workers and the coordinator.
const PartialSchema = "specbench-partial/2"

// PartialArm is one arm's outcome in raw, mergeable form: the clients'
// summed measurement-phase counters, the workers' error count, the
// exported histogram, the miss accumulators behind the service-time
// ratio, the raw attribution export, and the overload freeze/end
// snapshots. Every field is either a commutative sum over the arm's
// clients or (for warmup-derived values) identical across shards, which
// is what makes MergePartials exact. One process's own Result is computed
// from its PartialArm too (result), so a single-process report is by
// construction the merge of one partial.
type PartialArm struct {
	Stats          httpspec.ClientStats          `json:"stats"`
	Errors         int64                         `json:"errors"`
	WarmupErrors   int64                         `json:"warmup_errors"`
	Hist           HistState                     `json:"hist"`
	MissDurNS      int64                         `json:"miss_dur_ns"`
	MissCount      int64                         `json:"miss_count"`
	ElapsedNS      int64                         `json:"elapsed_ns"`
	Attrib         *attrib.Export                `json:"attrib,omitempty"`
	OverloadFreeze *httpspec.ServerOverloadStats `json:"overload_freeze,omitempty"`
	OverloadEnd    *httpspec.ServerOverloadStats `json:"overload_end,omitempty"`
}

// result computes the arm's Counts, Ratios and Timing from its raw state
// and hist, the imported form of a.Hist — the one place a Result is
// derived, for one process's workers and for merged shards alike.
func (a *PartialArm) result(hist *Hist) *Result {
	s := a.Stats
	pr := s.PaperRatios(float64(hist.sum), float64(a.MissDurNS), a.MissCount)
	elapsed := time.Duration(a.ElapsedNS)
	timing := &Timing{
		DurationSeconds: elapsed.Seconds(),
		Latency:         quantiles(hist),
		ServiceTime:     pr.ServiceTime,
		Histogram:       hist.Buckets(),
	}
	if elapsed > 0 {
		timing.Throughput = float64(hist.Count()) / elapsed.Seconds()
	}
	return &Result{
		Counts: Counts{
			Requests:           s.Fetches,
			WarmupErrors:       a.WarmupErrors,
			CacheHits:          s.CacheHits,
			SpecHits:           s.SpecHits,
			Pushed:             s.Pushed,
			Prefetched:         s.Prefetched,
			PrefetchRoundTrips: s.PrefetchRoundTrips,
			Errors:             a.Errors,
			Shed:               s.Shed,
			Retries:            s.Retries,
			StaleServes:        s.StaleServes,
			BytesIn:            s.BytesIn,
			DemandBytes:        s.DemandBytes,
			MissBytes:          s.MissBytes,
			SpecHitBytes:       s.SpecHitBytes,
			BaselineBytes:      s.BaselineBytes(),
		},
		Ratios: Ratios{Bandwidth: pr.Bandwidth, ServerLoad: pr.ServerLoad, ByteMissRate: pr.ByteMissRate},
		Timing: timing,
	}
}

// Partial is one worker process's report over its client shard. A
// coordinator collects one per shard and merges them into a BENCH
// Report whose deterministic section is byte-identical to the
// single-process run of the same config.
type Partial struct {
	Schema     string       `json:"schema"`
	ShardIndex int          `json:"shard_index"`
	ShardCount int          `json:"shard_count"`
	Config     ConfigInfo   `json:"config"`
	Workload   WorkloadInfo `json:"workload"`
	Spec       PartialArm   `json:"spec"`
	Baseline   *PartialArm  `json:"baseline,omitempty"`
}

// RunPartial executes cfg's shard (spec arm and, when withBaseline and
// cfg.Speculate, the no-speculation arm of the identical workload) and
// returns the raw partial report for the coordinator.
func RunPartial(cfg Config, withBaseline bool) (*Partial, error) {
	shards := cfg.ShardCount
	if shards <= 0 {
		shards = 1
	}
	_, arm, winfo, cinfo, err := runArm(cfg)
	if err != nil {
		return nil, err
	}
	p := &Partial{
		Schema:     PartialSchema,
		ShardIndex: cfg.ShardIndex,
		ShardCount: shards,
		Config:     cinfo,
		Workload:   *winfo,
		Spec:       arm,
	}
	if withBaseline && cfg.Speculate {
		b := cfg
		b.Speculate = false
		_, barm, _, _, err := runArm(b)
		if err != nil {
			return nil, err
		}
		p.Baseline = &barm
	}
	return p, nil
}

// MergePartials folds one partial per shard into the full BENCH Report.
// Counts sum (warmup errors, identical across shards by construction,
// are taken from the first and cross-checked); histograms merge exactly;
// ratios and timing are recomputed from the merged raw state with the
// same formulas the single-process aggregate uses; attribution exports
// merge through attrib.MergeExports; overload counters reconstruct as
// freeze + Σ per-shard measurement deltas with gauges from shard 0.
func MergePartials(parts []*Partial) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("loadgen: no partials to merge")
	}
	want := parts[0].ShardCount
	if want <= 0 {
		want = 1
	}
	if len(parts) != want {
		return nil, fmt.Errorf("loadgen: have %d partials for %d shards", len(parts), want)
	}
	seen := make(map[int]bool, want)
	firstCfg, err := json.Marshal(struct {
		C ConfigInfo
		W WorkloadInfo
	}{parts[0].Config, parts[0].Workload})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if p.Schema != PartialSchema {
			return nil, fmt.Errorf("loadgen: partial schema %q, want %q", p.Schema, PartialSchema)
		}
		if p.ShardCount != parts[0].ShardCount {
			return nil, fmt.Errorf("loadgen: shard-count mismatch: %d vs %d", p.ShardCount, parts[0].ShardCount)
		}
		if p.ShardIndex < 0 || p.ShardIndex >= want || seen[p.ShardIndex] {
			return nil, fmt.Errorf("loadgen: bad or duplicate shard index %d", p.ShardIndex)
		}
		seen[p.ShardIndex] = true
		cfg, err := json.Marshal(struct {
			C ConfigInfo
			W WorkloadInfo
		}{p.Config, p.Workload})
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(cfg, firstCfg) {
			return nil, fmt.Errorf("loadgen: shard %d ran a different config/workload", p.ShardIndex)
		}
	}

	rep := &Report{Schema: ReportSchema, Config: parts[0].Config, Workload: parts[0].Workload}
	specArms := make([]PartialArm, len(parts))
	var baseArms []PartialArm
	nBase := 0
	for i, p := range parts {
		specArms[i] = p.Spec
		if p.Baseline != nil {
			nBase++
			baseArms = append(baseArms, *p.Baseline)
		}
	}
	if nBase != 0 && nBase != len(parts) {
		return nil, fmt.Errorf("loadgen: baseline arm present in %d of %d partials", nBase, len(parts))
	}
	rep.Spec, err = mergeArms(specArms)
	if err != nil {
		return nil, err
	}
	if nBase > 0 {
		rep.Baseline, err = mergeArms(baseArms)
		if err != nil {
			return nil, err
		}
		rep.Relative = relative(rep.Spec, rep.Baseline)
	}

	// The coordinator's own heap snapshot stands in for the per-process
	// memory lines (wall-clock section; never part of the fingerprint).
	mem := heapNow()
	rep.Spec.Timing.Memory = mem
	if rep.Baseline != nil {
		rep.Baseline.Timing.Memory = mem
	}
	return rep, nil
}

// mergeArms reconstructs one arm's Result from its shard partials: sum
// the raw state, then derive the Result from the sum exactly as a single
// process derives it from its own.
func mergeArms(arms []PartialArm) (*Result, error) {
	var (
		sum      PartialArm
		exports  []*attrib.Export
		haveAttr bool
	)
	hist := NewHist()
	for i, a := range arms {
		h, err := ImportHist(a.Hist)
		if err != nil {
			return nil, err
		}
		hist.Merge(h)
		sum.Stats = sum.Stats.Add(a.Stats)
		sum.Errors += a.Errors
		sum.MissDurNS += a.MissDurNS
		sum.MissCount += a.MissCount
		if a.ElapsedNS > sum.ElapsedNS {
			sum.ElapsedNS = a.ElapsedNS
		}
		if i == 0 {
			sum.WarmupErrors = a.WarmupErrors
		} else if a.WarmupErrors != sum.WarmupErrors {
			return nil, fmt.Errorf("loadgen: shards disagree on warmup errors (%d vs %d) — warmup replays diverged",
				a.WarmupErrors, sum.WarmupErrors)
		}
		if a.Attrib != nil {
			haveAttr = true
		}
		exports = append(exports, a.Attrib)
	}
	res := sum.result(hist)
	if haveAttr {
		rep, err := attrib.MergeExports(exports, attribTopDocs)
		if err != nil {
			return nil, err
		}
		res.Attrib = rep
	}
	res.Overload = mergeOverload(arms)
	return res, nil
}

// mergeOverload reconstructs the single-process overload stats. The
// warmup-boundary freeze snapshot is identical across shards (every shard
// replays the full warmup under the frozen virtual clock) and the
// measurement-phase counter deltas partition by shard, so shard 0's end
// snapshot — freeze plus its own delta, and the source of the gauges and
// governor state — needs only the other shards' deltas added.
func mergeOverload(arms []PartialArm) *httpspec.ServerOverloadStats {
	if arms[0].OverloadEnd == nil {
		return nil
	}
	out := *arms[0].OverloadEnd
	if out.Admission != nil {
		adm := *out.Admission
		out.Admission = &adm
	}
	for _, a := range arms[1:] {
		e, f := a.OverloadEnd, a.OverloadFreeze
		if e == nil || f == nil {
			continue
		}
		out.PushesSuppressed += e.PushesSuppressed - f.PushesSuppressed
		out.EmbedsSuppressed += e.EmbedsSuppressed - f.EmbedsSuppressed
		out.DemandShed += e.DemandShed - f.DemandShed
		if out.Admission != nil && e.Admission != nil && f.Admission != nil {
			addDelta(&out.Admission.Demand, e.Admission.Demand, f.Admission.Demand)
			addDelta(&out.Admission.Speculative, e.Admission.Speculative, f.Admission.Speculative)
		}
	}
	return &out
}

// addDelta adds one class's admission activity between two snapshots.
func addDelta(dst *overload.ClassStats, end, freeze overload.ClassStats) {
	dst.Admitted += end.Admitted - freeze.Admitted
	dst.Rejected += end.Rejected - freeze.Rejected
	dst.Queued += end.Queued - freeze.Queued
}
