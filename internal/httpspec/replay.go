package httpspec

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/core"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience"
	"specweb/internal/trace"
)

// ReplayConfig parameterizes replaying a recorded trace against a live
// speculative server — the end-to-end measurement path for the prototype:
// synthesize a trace, start a server, replay, compare stats.
type ReplayConfig struct {
	// Base is the server's base URL.
	Base string
	// AcceptBundles and Cooperative configure every replayed client.
	AcceptBundles bool
	Cooperative   bool
	// PrefetchThreshold enables hint-driven prefetching on the clients.
	PrefetchThreshold float64
	// SessionGapRequests ends a client's session (purging its cache)
	// after this many requests; 0 keeps one session per client for the
	// whole replay. Wall-clock session semantics do not survive replay
	// compression, so the knob is request-count based.
	SessionGapRequests int
	// HTTP is the shared transport; nil means http.DefaultClient.
	HTTP *http.Client

	// Retry, when MaxAttempts > 1, retries failed demand fetches through
	// one shared Retrier (so the retry budget is global across clients).
	Retry resilience.RetryConfig
	// RequestTimeout bounds each replayed request attempt; 0 disables.
	RequestTimeout time.Duration
	// Chaos adds the availability/degradation section to the summary —
	// kept opt-in so non-chaos summaries stay byte-identical.
	Chaos bool

	// Rate switches the replay to open-loop arrival: requests are issued
	// at Rate requests/second in groups of Burst without waiting for
	// earlier responses, modelling offered load instead of the default
	// closed-loop walk (where a slow server throttles its own clients).
	// 0 keeps the closed loop. Open-loop runs add the overload section
	// to the summary.
	Rate  float64
	Burst int
	// LowPriority tags roughly this fraction of clients (chosen by a
	// stable hash of the client ID) with Spec-Priority: low, the demand
	// class an overloaded server sheds first. 0 tags nobody.
	LowPriority float64

	// Attrib adds the speculation attribution section to the summary:
	// every speculative delivery resolved as consumed or wasted, by
	// class, with top-K per-doc rows. Opt-in so summaries from earlier
	// versions stay byte-identical.
	Attrib bool
	// AttribFeedback piggybacks Spec-Attrib resolution tokens for pushed
	// documents on demand requests so the server's own ledger (specd
	// /debug/attrib) learns the fate of what it pushed; tokens for
	// prefetched documents are sent regardless (ClientConfig.AttribFeedback).
	AttribFeedback bool
}

// ReplayStats aggregates the outcome over all replayed clients.
type ReplayStats struct {
	Clients    int
	Requests   int64 // client-initiated fetches replayed
	CacheHits  int64
	SpecHits   int64 // cache hits manufactured by speculation
	Pushed     int64
	Prefetched int64
	// PrefetchRoundTrips is the requests the prefetched documents took.
	PrefetchRoundTrips int64
	BytesIn            int64
	Errors             int64

	// SpecHitBytes, DemandBytes and MissBytes feed the paper's ratios;
	// see ClientStats for their definitions.
	SpecHitBytes int64
	DemandBytes  int64
	MissBytes    int64

	// Retried and StaleServes aggregate the clients' degraded-mode
	// accounting; Chaos marks the run for summary reporting.
	Retried     int64
	StaleServes int64
	Chaos       bool

	// Shed counts demand fetches the server refused under overload
	// control (ErrShed), kept out of Errors: shedding is deliberate.
	Shed int64
	// OpenLoop marks an open-loop run; OfferedRate and Burst echo its
	// arrival process; ServerOverload is the server's overload snapshot
	// scraped from /spec/stats after the run (nil when unavailable).
	OpenLoop       bool
	OfferedRate    float64
	Burst          int
	ServerOverload *ServerOverloadStats

	// ServerEngine is the server's engine snapshot scraped from
	// /spec/stats after a chaos run (nil when unavailable): the refresh,
	// early-refresh, and rejected-snapshot counters feed the chaos
	// summary so estimator churn under faults is visible.
	ServerEngine *core.Stats

	// Attrib is the drained attribution ledger (nil unless requested).
	Attrib *attrib.Report

	latencies  []float64 // per successful client-initiated request, seconds
	missDurSum float64
	missCount  int64
}

// PaperRatios are the four quantities of §3's evaluation (Figs. 5–6),
// each expressed as speculative service over the non-speculative baseline
// a client with the same session cache would have seen. Bandwidth > 1 is
// the cost of speculation; server load, service time and byte miss rate
// < 1 are its benefits. Ratios are 1 when a run has no traffic to
// compare.
type PaperRatios struct {
	// Bandwidth: bytes over the wire / bytes a non-speculative client
	// would have fetched.
	Bandwidth float64 `json:"bandwidth"`
	// ServerLoad: server requests issued — demand misses plus prefetch
	// round trips, what Server.ServeHTTP sees — / server requests a
	// non-speculative client would have issued (spec hits would each
	// have been a request).
	ServerLoad float64 `json:"server_load"`
	// ServiceTime: observed mean request time / estimated baseline mean,
	// where each speculation-manufactured cache hit is charged the mean
	// cache-miss time it avoided.
	ServiceTime float64 `json:"service_time"`
	// ByteMissRate: requested bytes fetched over the wire / requested
	// bytes the baseline would have fetched (§3.3's byte miss rate,
	// speculative over non-speculative).
	ByteMissRate float64 `json:"byte_miss_rate"`
}

// ratio divides speculative by baseline, reporting the neutral 1 when
// there is nothing to compare (or a counter delta left the baseline
// negative).
func ratio(spec, baseline float64) float64 {
	if baseline <= 0 {
		return 1
	}
	return spec / baseline
}

// BaselineBytes is what a non-speculative client with the same session
// cache would have fetched: the misses plus every speculation-made hit.
func (s ClientStats) BaselineBytes() int64 { return s.MissBytes + s.SpecHitBytes }

// PaperRatios is the one definition of the four ratios, over summed
// client counters and the run's timing accumulators: serviceSum is the
// total observed request time, missSum and misses the time and count of
// the requests that went to the server (any one time unit throughout).
// Every report in the repository — loadgen's single-process and merged
// results, the replay summary — calls this.
func (s ClientStats) PaperRatios(serviceSum, missSum float64, misses int64) PaperRatios {
	var meanMiss float64
	if misses > 0 {
		meanMiss = missSum / float64(misses)
	}
	demand := s.Fetches - s.CacheHits // requests the session cache did not absorb
	return PaperRatios{
		Bandwidth:    ratio(float64(s.BytesIn), float64(s.BaselineBytes())),
		ServerLoad:   ratio(float64(demand+s.PrefetchRoundTrips), float64(demand+s.SpecHits)),
		ServiceTime:  ratio(serviceSum, serviceSum+float64(s.SpecHits)*meanMiss),
		ByteMissRate: ratio(float64(s.MissBytes), float64(s.BaselineBytes())),
	}
}

// LatencySummary reports client-observed request latency in milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// ChaosSummary reports how the run held up under injected faults: the
// fraction of replayed requests that were ultimately answered (from
// cache, origin, retried forwards, or stale replicas), and how much
// degraded machinery it took.
type ChaosSummary struct {
	// Availability is answered requests / replayed requests.
	Availability float64 `json:"availability"`
	// Retries counts re-attempted demand fetches across all clients.
	Retries int64 `json:"retries"`
	// StaleServes counts responses marked as stale-replica service;
	// StaleRatio is their share of all replayed requests.
	StaleServes int64   `json:"stale_serves"`
	StaleRatio  float64 `json:"stale_ratio"`

	// Estimator-refresh activity during the chaos run, scraped from the
	// server's /spec/stats. All omitempty: a server without the
	// estimator-hardening counters (or an unreachable one) leaves the
	// summary byte-identical to pre-feature output.
	EstimatorRefreshes         int64 `json:"estimator_refreshes,omitempty"`
	EstimatorEarlyRefreshes    int64 `json:"estimator_early_refreshes,omitempty"`
	EstimatorRejectedSnapshots int64 `json:"estimator_rejected_snapshots,omitempty"`

	// Checkpoint mirrors the server's durability ledger (saves, loads,
	// corrupt frames skipped, cold starts) for chaos runs against a
	// state-dir-backed server. Nil — and absent from the JSON — when the
	// server runs without a checkpoint store, keeping the summary
	// byte-identical to pre-feature output.
	Checkpoint *checkpoint.Counters `json:"checkpoint,omitempty"`
}

// OverloadSummary reports how an open-loop run interacted with the
// server's overload control: what load was offered, what was shed and
// from which class, and how far up the degradation ladder the server
// climbed. The paper's promise is only kept if shed work is
// overwhelmingly speculative — ShedSpeculativeRatio is that check.
type OverloadSummary struct {
	OfferedRate float64 `json:"offered_rate"`
	Burst       int     `json:"burst"`
	// DemandShed is demand requests refused with 503 (server-side count
	// when the stats scrape succeeded, client-observed otherwise).
	// SpeculativeShed is speculative work units dropped: suppressed
	// pushes, despeculated requests, and speculative admission rejects.
	DemandShed      int64 `json:"demand_shed"`
	SpeculativeShed int64 `json:"speculative_shed"`
	// ShedSpeculativeRatio = SpeculativeShed / (SpeculativeShed +
	// DemandShed); 1 when nothing was shed.
	ShedSpeculativeRatio float64 `json:"shed_speculative_ratio"`
	// DemandP99MS is the p99 latency of answered demand requests.
	DemandP99MS float64 `json:"demand_p99_ms"`
	// MaxRung / Rung report the highest ladder rung the governor reached
	// during the run and the rung it ended on; EffectiveTp is the
	// speculation threshold in force at the end.
	MaxRung     int     `json:"max_rung"`
	Rung        string  `json:"rung"`
	EffectiveTp float64 `json:"effective_tp"`
}

// ReplaySummary is the structured per-run result cmd/replay emits as
// JSON, so runs are machine-comparable across configurations and PRs.
// Chaos is present only for chaos-mode runs and Overload only for
// open-loop (-rate) runs, keeping fault-free closed-loop output
// byte-identical to earlier versions.
type ReplaySummary struct {
	Clients            int              `json:"clients"`
	Requests           int64            `json:"requests"`
	Errors             int64            `json:"errors"`
	CacheHits          int64            `json:"cache_hits"`
	SpecHits           int64            `json:"spec_hits"`
	Pushed             int64            `json:"pushed"`
	Prefetched         int64            `json:"prefetched"`
	PrefetchRoundTrips int64            `json:"prefetch_round_trips"`
	BytesIn            int64            `json:"bytes_in"`
	DemandBytes        int64            `json:"demand_bytes"`
	BaselineBytes      int64            `json:"baseline_bytes"`
	Ratios             PaperRatios      `json:"ratios"`
	LatencyMS          LatencySummary   `json:"latency_ms"`
	Chaos              *ChaosSummary    `json:"chaos,omitempty"`
	Overload           *OverloadSummary `json:"overload,omitempty"`
	// Attrib breaks the speculative bytes down into consumed vs wasted
	// per delivery class, with top-K per-doc rows (present with -attrib).
	Attrib *attrib.Report `json:"attrib,omitempty"`
}

// Summary computes the paper's four ratios and the latency percentiles
// for the run.
func (s *ReplayStats) Summary() ReplaySummary {
	totals := ClientStats{
		Fetches: s.Requests, CacheHits: s.CacheHits, SpecHits: s.SpecHits,
		Prefetched: s.Prefetched, PrefetchRoundTrips: s.PrefetchRoundTrips, BytesIn: s.BytesIn,
		MissBytes: s.MissBytes, SpecHitBytes: s.SpecHitBytes,
	}
	var durSum float64
	for _, d := range s.latencies {
		durSum += d
	}

	lat := LatencySummary{}
	if len(s.latencies) > 0 {
		sorted := append([]float64(nil), s.latencies...)
		sort.Float64s(sorted)
		pick := func(q float64) float64 {
			i := int(q * float64(len(sorted)-1))
			return sorted[i] * 1000
		}
		lat = LatencySummary{
			P50:  pick(0.50),
			P90:  pick(0.90),
			P99:  pick(0.99),
			Mean: durSum / float64(len(sorted)) * 1000,
			Max:  sorted[len(sorted)-1] * 1000,
		}
	}

	sum := ReplaySummary{
		Clients:            s.Clients,
		Requests:           s.Requests,
		Errors:             s.Errors,
		CacheHits:          s.CacheHits,
		SpecHits:           s.SpecHits,
		Pushed:             s.Pushed,
		Prefetched:         s.Prefetched,
		PrefetchRoundTrips: s.PrefetchRoundTrips,
		BytesIn:            s.BytesIn,
		DemandBytes:        s.DemandBytes,
		BaselineBytes:      totals.BaselineBytes(),
		Ratios:             totals.PaperRatios(durSum, s.missDurSum, s.missCount),
		LatencyMS:          lat,
	}
	if s.Chaos {
		reqs := float64(s.Requests)
		if reqs == 0 {
			reqs = 1
		}
		sum.Chaos = &ChaosSummary{
			Availability: float64(s.Requests-s.Errors) / reqs,
			Retries:      s.Retried,
			StaleServes:  s.StaleServes,
			StaleRatio:   float64(s.StaleServes) / reqs,
		}
		if eng := s.ServerEngine; eng != nil {
			sum.Chaos.EstimatorRefreshes = eng.Refreshes
			sum.Chaos.EstimatorEarlyRefreshes = eng.EarlyRefreshes
			sum.Chaos.EstimatorRejectedSnapshots = eng.SnapshotsRejected
			sum.Chaos.Checkpoint = eng.Checkpoint
		}
	}
	if s.OpenLoop {
		ov := &OverloadSummary{
			OfferedRate: s.OfferedRate,
			Burst:       s.Burst,
			DemandShed:  s.Shed,
			DemandP99MS: lat.P99,
			Rung:        overload.RungName(overload.RungNormal),
		}
		if so := s.ServerOverload; so != nil {
			// The server's ledger is authoritative: it sees admission
			// rejects and rung sheds alike, and is the only party that
			// can count suppressed speculation.
			ov.DemandShed = so.DemandShed
			ov.SpeculativeShed = so.SpeculativeShed()
			ov.MaxRung = so.Governor.MaxRungSeen
			ov.Rung = overload.RungName(so.Governor.Rung)
			ov.EffectiveTp = so.Governor.EffectiveTp
		}
		if total := ov.SpeculativeShed + ov.DemandShed; total > 0 {
			ov.ShedSpeculativeRatio = float64(ov.SpeculativeShed) / float64(total)
		} else {
			ov.ShedSpeculativeRatio = 1
		}
		sum.Overload = ov
	}
	sum.Attrib = s.Attrib
	return sum
}

// lowPriorityClient decides, by a stable hash, whether a client falls in
// the low-priority fraction — deterministic across runs of one trace.
func lowPriorityClient(id trace.ClientID, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return float64(h.Sum32()%1000) < fraction*1000
}

// replayRun holds the shared state of one replay: the client population
// and the outcome ledger (mutex-guarded, since open-loop requests land
// concurrently).
type replayRun struct {
	cfg     ReplayConfig
	retrier *resilience.Retrier
	attrib  *attrib.Ledger // nil unless cfg.Attrib

	clients      map[trace.ClientID]*Client // dispatcher-only
	sinceSession map[trace.ClientID]int     // dispatcher-only

	mu    sync.Mutex
	stats *ReplayStats
}

// clientFor returns (building on first use) the replay client for id and
// applies the session-gap purge. Called only from the dispatch loop.
func (rr *replayRun) clientFor(id trace.ClientID) *Client {
	c := rr.clients[id]
	if c == nil {
		var prio string
		if lowPriorityClient(id, rr.cfg.LowPriority) {
			prio = "low"
		}
		c = NewClient(rr.cfg.Base, ClientConfig{
			ID:                string(id),
			AcceptBundles:     rr.cfg.AcceptBundles,
			Cooperative:       rr.cfg.Cooperative,
			PrefetchThreshold: rr.cfg.PrefetchThreshold,
			HTTP:              rr.cfg.HTTP,
			Timeout:           rr.cfg.RequestTimeout,
			Retrier:           rr.retrier,
			Priority:          prio,
			Attrib:            rr.attrib,
			AttribFeedback:    rr.cfg.AttribFeedback,
		})
		rr.clients[id] = c
	}
	if rr.cfg.SessionGapRequests > 0 && rr.sinceSession[id] >= rr.cfg.SessionGapRequests {
		c.EndSession()
		rr.sinceSession[id] = 0
	}
	rr.sinceSession[id]++
	return c
}

// record books one request outcome. Shed requests are deliberate
// degradation, not failure, so they stay out of Errors (the client's own
// Shed counter carries them into the overload summary).
func (rr *replayRun) record(dur float64, fromCache bool, err error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if err != nil {
		if !errors.Is(err, ErrShed) {
			rr.stats.Errors++
		}
		return
	}
	rr.stats.latencies = append(rr.stats.latencies, dur)
	if !fromCache {
		rr.stats.missDurSum += dur
		rr.stats.missCount++
	}
}

// finish aggregates the per-client counters into the run stats and
// drains the attribution ledger: still-unused speculative copies resolve
// as wasted, so Outstanding reports zero. The ledger's updates commute,
// so map iteration order cannot change the report.
func (rr *replayRun) finish() *ReplayStats {
	stats := rr.stats
	stats.Clients = len(rr.clients)
	var total ClientStats
	for _, c := range rr.clients {
		if rr.attrib != nil {
			c.ResolveOutstanding()
		}
		total = total.Add(c.Stats())
	}
	stats.Requests = total.Fetches
	stats.CacheHits = total.CacheHits
	stats.SpecHits = total.SpecHits
	stats.Pushed = total.Pushed
	stats.Prefetched = total.Prefetched
	stats.PrefetchRoundTrips = total.PrefetchRoundTrips
	stats.BytesIn = total.BytesIn
	stats.SpecHitBytes = total.SpecHitBytes
	stats.DemandBytes = total.DemandBytes
	stats.MissBytes = total.MissBytes
	stats.Retried = total.Retries
	stats.StaleServes = total.StaleServes
	stats.Shed = total.Shed
	if rr.attrib != nil {
		stats.Attrib = rr.attrib.Report(replayAttribTopDocs)
	}
	return stats
}

// replayAttribTopDocs bounds the per-doc attribution rows in a summary.
const replayAttribTopDocs = 10

// scrapeOverload pulls the server's overload snapshot from /spec/stats;
// nil when the server is unreachable or runs without overload control.
func scrapeOverload(cfg ReplayConfig) *ServerOverloadStats {
	hc := cfg.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(cfg.Base + "/spec/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var payload struct {
		Overload *ServerOverloadStats
	}
	if json.NewDecoder(resp.Body).Decode(&payload) != nil {
		return nil
	}
	return payload.Overload
}

// scrapeEngine pulls the server's engine snapshot from /spec/stats; nil
// when the server is unreachable. Chaos runs use it to surface the
// refresh/early-refresh/rejected-snapshot counters.
func scrapeEngine(cfg ReplayConfig) *core.Stats {
	hc := cfg.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	// In chaos mode cfg.HTTP carries the fault injector, so a single
	// scrape may draw an injected failure; a few attempts make the
	// summary's estimator section reliable without a separate transport.
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := hc.Get(cfg.Base + "/spec/stats")
		if err != nil {
			continue
		}
		var payload struct {
			Engine *core.Stats
		}
		err = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if err != nil {
			continue
		}
		return payload.Engine
	}
	return nil
}

// Replay walks the trace in order, issuing each request through a per-client
// speculative Client against the server at cfg.Base. Requests whose paths
// the server does not serve count as errors but do not stop the replay.
// With cfg.Rate > 0 the walk is open-loop: requests are dispatched on the
// arrival schedule regardless of how fast the server answers.
func Replay(tr *trace.Trace, cfg ReplayConfig) (*ReplayStats, error) {
	if cfg.Base == "" {
		return nil, fmt.Errorf("httpspec: replay needs a base URL")
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("httpspec: empty trace")
	}
	// One shared retrier gives the whole replay a single retry budget;
	// one shared breaker keeps every client's view of the origin's
	// health consistent, as a real proxy population's would be.
	var retrier *resilience.Retrier
	if cfg.Retry.MaxAttempts > 1 {
		retrier = resilience.NewRetrier(cfg.Retry)
	}
	rr := &replayRun{
		cfg:          cfg,
		retrier:      retrier,
		clients:      make(map[trace.ClientID]*Client),
		sinceSession: make(map[trace.ClientID]int),
		stats:        &ReplayStats{Chaos: cfg.Chaos},
	}
	if cfg.Attrib {
		// Size the ledger past the trace's distinct paths (with slack
		// for pushed documents the trace never demands) so the
		// space-saving sketch never evicts: per-doc rows stay exact and
		// the whole ledger commutes (open-loop completion order cannot
		// change the report).
		distinct := make(map[string]struct{}, 1024)
		for i := range tr.Requests {
			distinct[tr.Requests[i].Path] = struct{}{}
		}
		rr.attrib = attrib.NewLedger(2*len(distinct)+64, obs.NewRegistry())
	}
	if cfg.Rate > 0 {
		return replayOpenLoop(tr, rr)
	}
	for i := range tr.Requests {
		r := &tr.Requests[i]
		c := rr.clientFor(r.Client)
		start := time.Now()
		_, fromCache, err := c.Get(r.Path)
		rr.record(time.Since(start).Seconds(), fromCache, err)
	}
	stats := rr.finish()
	if cfg.Chaos {
		stats.ServerEngine = scrapeEngine(cfg)
	}
	return stats, nil
}

// replayOpenLoop dispatches the trace at a fixed arrival rate in bursts,
// without waiting for responses — the offered load stays constant no
// matter how the server fares, which is the regime where overload
// control matters (a closed loop self-throttles and can never
// meaningfully oversubscribe the server).
func replayOpenLoop(tr *trace.Trace, rr *replayRun) (*ReplayStats, error) {
	cfg := rr.cfg
	burst := cfg.Burst
	if burst < 1 {
		burst = 1
	}
	interval := time.Duration(float64(burst) / cfg.Rate * float64(time.Second))
	rr.stats.OpenLoop = true
	rr.stats.OfferedRate = cfg.Rate
	rr.stats.Burst = burst

	var wg sync.WaitGroup
	next := time.Now()
	for i := range tr.Requests {
		if i > 0 && i%burst == 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		r := &tr.Requests[i]
		c := rr.clientFor(r.Client)
		path := r.Path
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, fromCache, err := c.Get(path)
			rr.record(time.Since(start).Seconds(), fromCache, err)
		}()
	}
	wg.Wait()
	stats := rr.finish()
	stats.ServerOverload = scrapeOverload(cfg)
	if cfg.Chaos {
		stats.ServerEngine = scrapeEngine(cfg)
	}
	return stats, nil
}
