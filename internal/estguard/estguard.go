// Package estguard hardens the Markov estimation → freeze → speculate
// pipeline against hostile and shifting traffic. The paper's speculation
// quality rests entirely on P[i,j] estimated from server logs (§3), and
// §3.4 shows how bad estimates erode all four ratios — but the paper never
// considers crawlers poisoning the log, flash crowds invalidating the
// frozen snapshot mid-window, or diurnal drift. This package supplies the
// three defenses the pipeline lacks:
//
//  1. Client classification and quarantine: per-client behavioral
//     fingerprints (request rate, fan-out breadth, think-time regularity,
//     repeat ratio) feed a seeded-deterministic classifier. Transitions
//     from clients tagged crawler/scanner/bot are diverted into a
//     quarantined side-ledger and excluded from P[i,j]; a CAS-guarded
//     promotion path restores clients whose later windows look human.
//  2. Drift detection: a windowed divergence score (top-K L1 distance
//     between live request counts and the distribution the frozen
//     snapshot was estimated from) detects flash crowds and diurnal
//     shifts, triggers an early re-freeze when the drift is real, and
//     feeds the overload governor as a load signal.
//  3. Snapshot validation and confidence damping: a candidate snapshot
//     whose predicted interception (calibrated by the attribution
//     ledger's consumed/wasted feedback) would regress past a bound is
//     rejected, keeping the last-good snapshot — the Replicator's
//     last-good-fit idiom applied to the estimator. Per-row trust scores
//     (sample support × clean fraction) scale decision probabilities so
//     sparse or poisoned rows demote push→hint→nothing.
//
// Determinism contract: classification, quarantine transitions, drift
// profiles, and snapshot judgments mutate only at refresh time, under the
// engine mutex, iterating clients in sorted order over the time-sorted
// flush — never on the concurrent record path. The record path only
// increments commutative counters. Frozen snapshots and guard statistics
// are therefore byte-identical across recording-shard layouts and worker
// counts (see DESIGN §12).
package estguard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"specweb/internal/obs"
	"specweb/internal/trace"
)

// Status is a client's classification.
type Status int32

const (
	// Human clients contribute transitions to P[i,j].
	Human Status = iota
	// Quarantined clients record into the side-ledger only and receive
	// no speculation.
	Quarantined
)

// Quarantine reasons, used as the {reason} label on
// specweb_estimator_quarantined_total and in the X-Specweb-Quarantine
// header.
const (
	ReasonCrawler = "crawler" // broad fan-out with metronomic gaps
	ReasonScanner = "scanner" // touches a large document range once
	ReasonBot     = "bot"     // metronomic timing without human variance
)

// Config parameterizes the guard. Zero values take defaults.
type Config struct {
	// Seed derives per-client threshold jitter, making the classification
	// boundary deterministic for a given seed but not globally uniform —
	// an adversary cannot sit exactly on a published threshold.
	Seed int64

	// MinRequests is the evidence floor: clients with fewer lifetime
	// requests are never quarantined.
	MinRequests int
	// CrawlerBreadth quarantines when the fraction of distinct documents
	// per request (fan-out breadth) stays at or above this and gaps are
	// regular.
	CrawlerBreadth float64
	// RegularityCV is the coefficient-of-variation ceiling below which
	// inter-request gaps count as metronomic. Human think times are
	// heavy-tailed (CV well above 0.5); fixed-interval fetchers sit near 0.
	RegularityCV float64
	// ScanDocs quarantines as "scanner" when a single window touches at
	// least this many distinct documents with essentially no repeats.
	ScanDocs int
	// MaxRepeatRatio is the repeat-ratio ceiling for the scanner verdict.
	MaxRepeatRatio float64
	// PromoteAfter is the number of consecutive human-looking refresh
	// windows after which a quarantined client is promoted back.
	PromoteAfter int

	// DriftTopK bounds the per-window distribution compared by the drift
	// score to the K most-requested documents.
	DriftTopK int
	// DriftThreshold is the L1 divergence (in [0,2]) at which drift is
	// considered real and an early re-freeze is requested.
	DriftThreshold float64
	// DriftMinSamples is the minimum live request count before the drift
	// score is meaningful; below it the score reports 0.
	DriftMinSamples int
	// EarlyRefreshFraction gates early re-freeze: drift may only trigger
	// a refresh after this fraction of the regular refresh interval has
	// elapsed, bounding refresh churn under sustained attack.
	EarlyRefreshFraction float64
	// DriftMaxTracked caps the distinct documents each drift shard counts
	// between refreshes, bounding the live drift window the same way the
	// bounded estimator caps P[i,j]: past the cap a new document displaces
	// the shard's least-counted one, space-saving style. The default
	// (4096/shard across 32 shards) is far above any top-K the score
	// compares, so the score is exact whenever a shard sees fewer distinct
	// documents than the cap — which the determinism suite relies on.
	DriftMaxTracked int

	// TrustSamples is the half-saturation constant of the sample-support
	// trust factor: a row with TrustSamples occurrences earns trust 0.5
	// from support alone.
	TrustSamples float64

	// MaxRegression is the tolerated fractional drop in mean speculation
	// confidence between the last accepted snapshot and a candidate;
	// candidates regressing further are rejected (last-good kept).
	MaxRegression float64
	// MinFeedback is the minimum number of newly resolved speculative
	// deliveries (consumed+wasted, from the attribution ledger) before
	// the observed interception rate calibrates the regression bound.
	MinFeedback int64
	// MaxConsecutiveRejects force-accepts a candidate after this many
	// consecutive rejections, so decay can eventually flush a poisoned
	// accumulator instead of pinning a stale snapshot forever.
	MaxConsecutiveRejects int

	// Metrics receives specweb_estguard_* series (nil = obs.Default).
	Metrics *obs.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MinRequests <= 0 {
		out.MinRequests = 24
	}
	if out.CrawlerBreadth <= 0 {
		out.CrawlerBreadth = 0.8
	}
	if out.RegularityCV <= 0 {
		out.RegularityCV = 0.25
	}
	if out.ScanDocs <= 0 {
		out.ScanDocs = 150
	}
	if out.MaxRepeatRatio <= 0 {
		out.MaxRepeatRatio = 0.05
	}
	if out.PromoteAfter <= 0 {
		out.PromoteAfter = 2
	}
	if out.DriftTopK <= 0 {
		out.DriftTopK = 64
	}
	if out.DriftThreshold <= 0 {
		out.DriftThreshold = 0.75
	}
	if out.DriftMinSamples <= 0 {
		out.DriftMinSamples = 64
	}
	if out.EarlyRefreshFraction <= 0 {
		out.EarlyRefreshFraction = 0.25
	}
	if out.DriftMaxTracked <= 0 {
		out.DriftMaxTracked = 4096
	}
	if out.TrustSamples <= 0 {
		out.TrustSamples = 8
	}
	if out.MaxRegression <= 0 {
		out.MaxRegression = 0.5
	}
	if out.MinFeedback <= 0 {
		out.MinFeedback = 64
	}
	if out.MaxConsecutiveRejects <= 0 {
		out.MaxConsecutiveRejects = 8
	}
	return out
}

// clientState is one client's behavioral fingerprint. The atomic status is
// read lock-free on the serve path; every other field is owned by the
// refresh goroutine (the engine calls Partition under its mutex).
type clientState struct {
	status atomic.Int32

	reason    string  // quarantine reason while status == Quarantined
	totalReqs int64   // lifetime request count
	windows   int64   // refresh windows with activity
	breadth   float64 // EWMA of distinct/requests per window
	distinct  float64 // EWMA of distinct documents per window
	repeat    float64 // EWMA of repeat ratio per window
	gapCV     float64 // EWMA of inter-request gap coefficient of variation
	streak    int     // consecutive human-looking windows while quarantined
}

// Guard is the estimator-hardening layer. All mutating entry points are
// called from the engine's refresh path (single-threaded, under the engine
// mutex); Status, NoteRequest, DriftScore, and Stats are safe for
// concurrent use from the serve path.
type Guard struct {
	cfg Config

	clients sync.Map // trace.ClientID -> *clientState

	drift driftState

	judge judgeState

	// Counters; atomics so the serve path can read Stats concurrently
	// with a refresh.
	quarClients  atomic.Int64 // currently quarantined clients
	quarRequests atomic.Int64 // transitions diverted to the side-ledger
	promotions   atomic.Int64
	demotions    atomic.Int64

	reasonMu     sync.Mutex
	reasonCounts map[string]int64

	metrics *guardMetrics
}

type guardMetrics struct {
	reg        *obs.Registry
	mu         sync.Mutex
	quarantine map[string]*obs.Counter // reason -> drop counter
	promotions *obs.Counter
	demotions  *obs.Counter
	rejected   *obs.Counter
	forced     *obs.Counter
	drift      *obs.Gauge
}

func newGuardMetrics(reg *obs.Registry) *guardMetrics {
	return &guardMetrics{
		reg:        reg,
		quarantine: make(map[string]*obs.Counter),
		promotions: reg.Counter("specweb_estguard_promotions_total",
			"Quarantined clients promoted back to human after clean windows.", nil),
		demotions: reg.Counter("specweb_estguard_demotions_total",
			"Clients quarantined by the behavioral classifier.", nil),
		rejected: reg.Counter("specweb_estguard_snapshots_rejected_total",
			"Candidate snapshots rejected by the interception-regression bound.", nil),
		forced: reg.Counter("specweb_estguard_snapshots_forced_total",
			"Snapshots force-accepted after too many consecutive rejections.", nil),
		drift: reg.Gauge("specweb_estguard_drift_score",
			"Top-K L1 divergence between live traffic and the frozen snapshot's window.", nil),
	}
}

// quarantined returns the drop counter for a reason, creating it lazily:
// the {reason} label space is bounded by the three classifier verdicts.
func (m *guardMetrics) quarantinedCounter(reason string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.quarantine[reason]
	if !ok {
		c = m.reg.Counter("specweb_estimator_quarantined_total",
			"Transitions diverted from P[i,j] into the quarantined side-ledger.",
			obs.Labels{"reason": reason})
		m.quarantine[reason] = c
	}
	return c
}

// New returns a guard with the given configuration.
func New(cfg Config) *Guard {
	c := cfg.withDefaults()
	g := &Guard{
		cfg:          c,
		reasonCounts: make(map[string]int64),
		metrics:      newGuardMetrics(c.Metrics),
	}
	g.drift.init(c)
	g.judge.init(c)
	return g
}

// Status returns a client's current classification and, when quarantined,
// the reason. Lock-free; safe on the serve hot path.
func (g *Guard) Status(c trace.ClientID) (Status, string) {
	v, ok := g.clients.Load(c)
	if !ok {
		return Human, ""
	}
	st := v.(*clientState)
	if Status(st.status.Load()) == Quarantined {
		return Quarantined, st.reason
	}
	return Human, ""
}

// jitter derives a deterministic per-client multiplier in [0.95, 1.05)
// from the seed, so classification thresholds are seeded rather than
// globally fixed.
func (g *Guard) jitter(c trace.ClientID) float64 {
	h := uint64(g.cfg.Seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(c); i++ {
		h ^= uint64(c[i])
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return 0.95 + float64(h%1024)/1024*0.1
}

// windowFeatures summarizes one client's requests within a refresh window.
type windowFeatures struct {
	n        int
	distinct int
	repeat   float64 // 1 - distinct/n
	gapCV    float64 // coefficient of variation of positive gaps; 10 when <2 gaps
}

func featuresOf(visits []trace.Visit) windowFeatures {
	f := windowFeatures{n: len(visits)}
	seen := make(map[int64]struct{}, len(visits))
	for i := range visits {
		seen[int64(visits[i].Doc)] = struct{}{}
	}
	f.distinct = len(seen)
	if f.n > 0 {
		f.repeat = 1 - float64(f.distinct)/float64(f.n)
	}
	// Gap regularity over positive inter-request gaps. Zero gaps (bundled
	// embedded objects recorded at the same instant) carry no timing
	// signal and are skipped; so are gaps past the session cap — a robot
	// that crawls in bursts twice a day would otherwise hide its
	// metronomic intra-burst cadence behind two huge inter-burst gaps.
	const sessionGapCap = 900.0 // seconds
	var gaps []float64
	for i := 1; i < len(visits); i++ {
		d := (visits[i].At - visits[i-1].At).Seconds()
		if d > 0 && d <= sessionGapCap {
			gaps = append(gaps, d)
		}
	}
	if len(gaps) < 2 {
		f.gapCV = 10 // insufficient timing evidence: looks maximally human
		return f
	}
	var sum float64
	for _, d := range gaps {
		sum += d
	}
	mean := sum / float64(len(gaps))
	var varsum float64
	for _, d := range gaps {
		varsum += (d - mean) * (d - mean)
	}
	sd := math.Sqrt(varsum / float64(len(gaps)))
	if mean > 0 {
		f.gapCV = sd / mean
	} else {
		f.gapCV = 10
	}
	return f
}

const ewmaAlpha = 0.5 // fingerprint EWMA weight for the newest window

func ewma(prev, x float64, first bool) float64 {
	if first {
		return x
	}
	return prev + ewmaAlpha*(x-prev)
}

// classify applies the seeded thresholds to a client's accumulated
// fingerprint. It returns the quarantine reason, or "" for human.
func (g *Guard) classify(c trace.ClientID, st *clientState) string {
	if st.totalReqs < int64(g.cfg.MinRequests) {
		return ""
	}
	j := g.jitter(c)
	// Scanner: one pass over a large document range, essentially no
	// repeats — the estimator would learn sequential doc-ID chains.
	if st.distinct >= float64(g.cfg.ScanDocs)*j && st.repeat <= g.cfg.MaxRepeatRatio {
		return ReasonScanner
	}
	// Crawler: broad fan-out and metronomic gaps — link-structure
	// traversal, not demand.
	if st.breadth >= g.cfg.CrawlerBreadth*j && st.gapCV <= g.cfg.RegularityCV*j {
		return ReasonCrawler
	}
	// Bot: timing alone — fixed-interval fetching with none of the
	// variance human think times show, regardless of breadth.
	if st.gapCV <= g.cfg.RegularityCV*j*0.4 {
		return ReasonBot
	}
	return ""
}

// Partition updates fingerprints from a refresh window's flushed runs (one
// per client, in ascending client order, as the engine hands them over),
// reclassifies every active client, and splits the window into the clean
// runs (feed P[i,j]) and the quarantined runs (feed the side-ledger). Both
// keep flush's order. It also rebuilds the drift profile from the clean
// partition and resets the live counters.
//
// Must be called from the engine's refresh path: classification order is
// the clients' sorted order, and state transitions happen only here, so a
// request's routing decision depends only on the window's content — never
// on shard layout or drain interleaving.
func (g *Guard) Partition(flush []trace.Run) (clean, quarantined []trace.Run) {
	for _, run := range flush {
		v, _ := g.clients.LoadOrStore(run.Client, &clientState{})
		st := v.(*clientState)
		f := featuresOf(run.Visits)
		first := st.windows == 0
		st.windows++
		st.totalReqs += int64(f.n)
		st.breadth = ewma(st.breadth, float64(f.distinct)/math.Max(1, float64(f.n)), first)
		st.distinct = ewma(st.distinct, float64(f.distinct), first)
		st.repeat = ewma(st.repeat, f.repeat, first)
		st.gapCV = ewma(st.gapCV, f.gapCV, first)

		reason := g.classify(run.Client, st)
		cur := Status(st.status.Load())
		switch {
		case reason != "" && cur == Human:
			// Demote. The CAS can only race with another refresh, which
			// the engine mutex excludes; it still guards the promotion
			// path against torn read-modify-write on the serve side.
			st.reason = reason
			st.streak = 0
			if st.status.CompareAndSwap(int32(Human), int32(Quarantined)) {
				g.quarClients.Add(1)
				g.demotions.Add(1)
				g.metrics.demotions.Inc()
			}
		case reason != "" && cur == Quarantined:
			st.reason = reason
			st.streak = 0
		case reason == "" && cur == Quarantined:
			// Promotion path: require PromoteAfter consecutive clean
			// windows before trusting the client again.
			st.streak++
			if st.streak >= g.cfg.PromoteAfter &&
				st.status.CompareAndSwap(int32(Quarantined), int32(Human)) {
				st.reason = ""
				st.streak = 0
				g.quarClients.Add(-1)
				g.promotions.Add(1)
				g.metrics.promotions.Inc()
			}
		}
	}

	// Route each client's run by its final status.
	clean = make([]trace.Run, 0, len(flush))
	reasonDrops := make(map[string]int64)
	for _, run := range flush {
		v, _ := g.clients.Load(run.Client)
		if st := v.(*clientState); Status(st.status.Load()) == Quarantined {
			quarantined = append(quarantined, run)
			reasonDrops[st.reason] += int64(len(run.Visits))
			continue
		}
		clean = append(clean, run)
	}
	for reason, n := range reasonDrops {
		g.quarRequests.Add(n)
		g.metrics.quarantinedCounter(reason).Add(n)
		g.reasonMu.Lock()
		g.reasonCounts[reason] += n
		g.reasonMu.Unlock()
	}

	g.drift.setProfile(clean)
	g.metrics.drift.Set(0)
	return clean, quarantined
}

// Stats is a point-in-time snapshot of the guard's counters, exported on
// /spec/stats and in specbench reports.
type Stats struct {
	QuarantinedClients  int64            `json:"quarantined_clients"`
	QuarantinedRequests int64            `json:"quarantined_requests"`
	Promotions          int64            `json:"promotions,omitempty"`
	Demotions           int64            `json:"demotions,omitempty"`
	Reasons             map[string]int64 `json:"reasons,omitempty"`
	DriftScore          float64          `json:"drift_score"`
	RejectedSnapshots   int64            `json:"rejected_snapshots,omitempty"`
	ForcedAccepts       int64            `json:"forced_accepts,omitempty"`
	// SpecSuppressed is filled by the serving layer: requests answered
	// without speculation because the client was quarantined.
	SpecSuppressed int64 `json:"spec_suppressed,omitempty"`
}

// StatsSnapshot returns current counters. Safe for concurrent use.
func (g *Guard) StatsSnapshot() Stats {
	s := Stats{
		QuarantinedClients:  g.quarClients.Load(),
		QuarantinedRequests: g.quarRequests.Load(),
		Promotions:          g.promotions.Load(),
		Demotions:           g.demotions.Load(),
		DriftScore:          g.DriftScore(),
		RejectedSnapshots:   g.judge.rejected.Load(),
		ForcedAccepts:       g.judge.forced.Load(),
	}
	g.reasonMu.Lock()
	if len(g.reasonCounts) > 0 {
		s.Reasons = make(map[string]int64, len(g.reasonCounts))
		for k, v := range g.reasonCounts {
			s.Reasons[k] = v
		}
	}
	g.reasonMu.Unlock()
	return s
}

// Trust combines a row's sample support with its clean fraction into a
// multiplicative confidence damp in (0, 1]. occ is the row's decayed
// occurrence count in the clean estimator, quarOcc the same document's
// occurrences in the quarantined side-ledger, and samples the
// half-saturation constant: Trust(samples, 0, samples) = 0.5.
//
// Sparse rows (low occ) and poisoned rows (high quarOcc) both damp toward
// zero, demoting their successors push→hint→nothing as the scaled
// probabilities cross below the engine's thresholds.
func Trust(occ, quarOcc, samples float64) float64 {
	return trust(occ, quarOcc, samples)
}

// RowTrust is Trust with the guard's configured TrustSamples constant.
func (g *Guard) RowTrust(occ, quarOcc float64) float64 {
	return trust(occ, quarOcc, g.cfg.TrustSamples)
}

func trust(occ, quarOcc, samples float64) float64 {
	if occ <= 0 {
		return 0
	}
	support := occ / (occ + samples)
	clean := occ / (occ + math.Max(0, quarOcc))
	return support * clean
}

func (s Status) String() string {
	switch s {
	case Human:
		return "human"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}
