// Package simulate implements the trace-driven simulation of §3.2–3.4: it
// replays a server log twice — once without speculation and once with a
// speculation policy — and reports the paper's four ratios (bandwidth,
// server load, service time, byte miss rate).
//
// The simulated world matches the paper's:
//
//   - Each client has a cache governed by SessionTimeout (∞ = infinite
//     multi-session cache, 0 = no cache) and optionally a capacity bound.
//   - The server estimates P (and its closure P*) from the most recent
//     HistoryLength days of its own log, re-estimating every UpdateCycle
//     days; requests are served with the estimate in force at their time.
//   - On a cache miss the client fetches from the server (one unit of
//     server load, ServCost + CommCost·size latency); the speculative arm's
//     server then pushes the policy's candidates, which enter the client's
//     cache and are charged to bandwidth whether or not they are ever used.
//   - Cooperative clients (§3.4) piggyback their cache digest, letting the
//     server skip documents the client already holds.
//   - Server-assisted prefetching (§3.4) sends hints instead of documents;
//     the client prefetches hints above its own threshold with individual
//     background requests. The hybrid protocol pushes near-certain
//     documents and hints the rest.
package simulate

import (
	"fmt"
	"time"

	"specweb/internal/cache"
	"specweb/internal/costmodel"
	"specweb/internal/markov"
	"specweb/internal/speculation"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// Config parameterizes one simulation run. Baseline() reproduces the
// paper's §3.2 parameter table.
type Config struct {
	Site  *webgraph.Site
	Costs costmodel.Costs

	// Client cache model.
	SessionTimeout time.Duration
	CacheCapacity  int64 // 0 = unbounded

	// Dependency estimation.
	Window         time.Duration // T_w
	StrideTimeout  time.Duration
	HistoryLength  int // days of log used per estimate (D')
	UpdateCycle    int // days between re-estimates (D)
	MinOccurrences int
	// Smoothing shrinks low-support probability estimates toward zero
	// (see markov.EstimateConfig.Smoothing).
	Smoothing float64
	// UseClosure selects P* (true, the baseline) or the raw P (false, the
	// ablation of DESIGN.md). P* is estimated directly from the trace by
	// stride pairing (the paper's §3.1 definition); set ClosureAnalytic to
	// instead derive it from P by the noisy-OR fixpoint, the second
	// ablation.
	UseClosure      bool
	ClosureAnalytic bool
	ClosureEps      float64

	// Policy.
	Tp      float64 // threshold on the selected matrix
	TopK    int     // when > 0, use top-K selection instead of threshold
	MaxSize int64   // per-document cap; 0 = ∞
	// Cooperative lets the server skip documents in the client's cache.
	Cooperative bool

	// Delivery mode and its knobs.
	Mode           speculation.Mode
	EmbedThreshold float64 // hybrid: push at or above this probability
	PrefetchTp     float64 // hints: client prefetches at or above this

	// MeasureFrom, when non-zero, starts metric accumulation at that
	// instant: earlier requests still warm caches and are replayed
	// normally, but contribute to neither arm's tallies. Experiments use
	// it to exclude the estimation cold-start from the measurement, as an
	// evaluation with pre-existing log history would.
	MeasureFrom time.Time
}

// Baseline returns the paper's baseline parameters: CommCost 1, ServCost
// 10,000, StrideTimeout 5 s, SessionTimeout ∞, MaxSize ∞, policy
// p*[i,j] ≥ T_p, HistoryLength 60 days, UpdateCycle 1 day.
func Baseline(site *webgraph.Site, tp float64) Config {
	return Config{
		Site:           site,
		Costs:          costmodel.Default(),
		SessionTimeout: cache.Forever,
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		HistoryLength:  60,
		UpdateCycle:    1,
		MinOccurrences: 5,
		Smoothing:      2,
		UseClosure:     true,
		ClosureEps:     1e-3,
		Tp:             tp,
		Mode:           speculation.ModePush,
		EmbedThreshold: 0.95,
		PrefetchTp:     0.25,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Site == nil {
		return fmt.Errorf("simulate: nil site")
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if c.Window <= 0 {
		return fmt.Errorf("simulate: window must be positive, got %v", c.Window)
	}
	if c.HistoryLength <= 0 || c.UpdateCycle <= 0 {
		return fmt.Errorf("simulate: HistoryLength (%d) and UpdateCycle (%d) must be positive",
			c.HistoryLength, c.UpdateCycle)
	}
	if c.Tp < 0 || c.Tp > 1 {
		return fmt.Errorf("simulate: Tp %v outside [0,1]", c.Tp)
	}
	if c.Mode == speculation.ModeHybrid && (c.EmbedThreshold <= 0 || c.EmbedThreshold > 1) {
		return fmt.Errorf("simulate: hybrid needs EmbedThreshold in (0,1], got %v", c.EmbedThreshold)
	}
	if c.Mode != speculation.ModePush && (c.PrefetchTp < 0 || c.PrefetchTp > 1) {
		return fmt.Errorf("simulate: PrefetchTp %v outside [0,1]", c.PrefetchTp)
	}
	return nil
}

// Result is one run's outcome.
type Result struct {
	Spec   costmodel.Tally
	Base   costmodel.Tally
	Ratios costmodel.Ratios
	// SpeculatedDocs counts documents pushed speculatively; UsedDocs those
	// later hit in cache by a client-initiated request.
	SpeculatedDocs int64
	UsedDocs       int64
	// PrefetchedDocs counts client-initiated background prefetches
	// (hints/hybrid modes).
	PrefetchedDocs int64
	// RepeatConversions counts speculative deliveries later used for a
	// document this client had requested before; NovelConversions those
	// for first-time documents. §3.4 contrasts server-side speculation
	// (which converts novel accesses) with per-user client prefetching
	// (which cannot).
	RepeatConversions int64
	NovelConversions  int64
}

// Schedule is the sequence of dependency-matrix estimates in force over a
// trace, one per update cycle, each frozen once so every request reads its
// row pre-sorted. It is policy-independent, so one Schedule can drive a
// whole T_p sweep.
type Schedule struct {
	start    time.Time
	cycle    time.Duration
	matrices []*markov.Frozen // matrices[k] serves days [k·UC, (k+1)·UC)
}

// BuildSchedule estimates the matrices for the trace under the config's
// estimation parameters (Window, StrideTimeout, HistoryLength, UpdateCycle,
// UseClosure).
func BuildSchedule(tr *trace.Trace, cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	first, last, ok := tr.Span()
	if !ok {
		return nil, fmt.Errorf("simulate: empty trace")
	}
	day := 24 * time.Hour
	s := &Schedule{start: first, cycle: time.Duration(cfg.UpdateCycle) * day}
	est := markov.EstimateConfig{
		Window:         cfg.Window,
		StrideTimeout:  cfg.StrideTimeout,
		MinOccurrences: cfg.MinOccurrences,
		Smoothing:      cfg.Smoothing,
	}
	eps := cfg.ClosureEps
	if eps <= 0 {
		eps = 1e-3
	}
	for at := first; !at.After(last); at = at.Add(s.cycle) {
		histFrom := at.Add(-time.Duration(cfg.HistoryLength) * day)
		window := tr.Window(histFrom, at)
		if cfg.UseClosure && cfg.ClosureAnalytic {
			m, err := markov.Estimate(window, est)
			if err != nil {
				return nil, err
			}
			// Chains beyond a handful of links carry negligible
			// probability mass; bounding the fixpoint keeps the analytic
			// ablation tractable on month-scale histories.
			s.matrices = append(s.matrices, markov.Freeze(m.Closure(eps, 1e-4, 6)))
			continue
		}
		// P, or P* straight from the strides: the window folded into a
		// fresh exact estimator that never decays, frozen from its counts.
		a := markov.NewAging(1, est)
		a.Transitive = cfg.UseClosure
		if err := a.AddDay(window); err != nil {
			return nil, err
		}
		s.matrices = append(s.matrices, a.Freeze(nil))
	}
	return s, nil
}

// At returns the matrix in force at the given time.
func (s *Schedule) At(t time.Time) *markov.Frozen {
	k := int(t.Sub(s.start) / s.cycle)
	if k < 0 {
		k = 0
	}
	if k >= len(s.matrices) {
		k = len(s.matrices) - 1
	}
	return s.matrices[k]
}

// Cycles returns the number of estimation cycles in the schedule.
func (s *Schedule) Cycles() int { return len(s.matrices) }

// Run simulates the trace under cfg, building the matrix schedule itself.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	sched, err := BuildSchedule(tr, cfg)
	if err != nil {
		return nil, err
	}
	return RunWithSchedule(tr, cfg, sched)
}

// RunWithSchedule simulates the trace using a prebuilt schedule, which must
// have been built with the same estimation parameters.
func RunWithSchedule(tr *trace.Trace, cfg Config, sched *Schedule) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil || sched.Cycles() == 0 {
		return nil, fmt.Errorf("simulate: empty schedule")
	}

	res := &Result{}
	baseCaches := make(map[trace.ClientID]cache.Cache)
	specCaches := make(map[trace.ClientID]cache.Cache)
	getCache := func(m map[trace.ClientID]cache.Cache, c trace.ClientID) cache.Cache {
		cc, ok := m[c]
		if !ok {
			cc = cache.New(cfg.SessionTimeout, cfg.CacheCapacity)
			m[c] = cc
		}
		return cc
	}
	// specPushed tracks, per client, pushed-but-not-yet-used documents for
	// the UsedDocs accounting; visited tracks each client's full request
	// history for the repeat/novel conversion split.
	pushedPending := make(map[trace.ClientID]map[webgraph.DocID]bool)
	visited := make(map[trace.ClientID]map[webgraph.DocID]bool)

	rule, size := cfg.rule(), siteSize(cfg.Site)
	var dec speculation.Decision

	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Doc == webgraph.None {
			continue
		}
		bc := getCache(baseCaches, r.Client)
		sc := getCache(specCaches, r.Client)
		bc.Touch(r.Time)
		sc.Touch(r.Time)

		measured := cfg.MeasureFrom.IsZero() || !r.Time.Before(cfg.MeasureFrom)
		if measured {
			res.Base.AccessedBytes += r.Size
			res.Spec.AccessedBytes += r.Size
		}

		// Non-speculative arm.
		if !bc.Has(r.Doc) {
			if measured {
				res.Base.Requests++
				res.Base.BytesSent += r.Size
				res.Base.MissBytes += r.Size
				res.Base.Latency += cfg.Costs.RequestLatency(r.Size)
			}
			bc.Put(r.Doc, r.Size)
		}

		// Speculative arm.
		seen := visited[r.Client]
		if seen == nil {
			seen = make(map[webgraph.DocID]bool)
			visited[r.Client] = seen
		}
		wasSeen := seen[r.Doc]
		seen[r.Doc] = true

		if sc.Has(r.Doc) {
			if pend := pushedPending[r.Client]; pend != nil {
				if countedAtPush, ok := pend[r.Doc]; ok {
					delete(pend, r.Doc)
					// Only deliveries that were themselves counted can
					// count as used, keeping UsedDocs ≤ SpeculatedDocs
					// (+ PrefetchedDocs) under a measurement warmup.
					if measured && countedAtPush {
						res.UsedDocs++
						if wasSeen {
							res.RepeatConversions++
						} else {
							res.NovelConversions++
						}
					}
				}
			}
			continue
		}
		if measured {
			res.Spec.Requests++
			res.Spec.BytesSent += r.Size
			res.Spec.MissBytes += r.Size
			res.Spec.Latency += cfg.Costs.RequestLatency(r.Size)
		}
		sc.Put(r.Doc, r.Size)

		var have func(webgraph.DocID) bool
		if cfg.Cooperative {
			have = sc.Has
		}
		rule.Decide(&dec, sched.At(r.Time), r.Doc, size, have)
		for _, d := range dec.Push {
			pushDoc(res, cfg, sc, pushedPending, r.Client, d, measured)
		}
		for _, h := range dec.Hints {
			if h.P >= cfg.PrefetchTp {
				prefetchDoc(res, cfg, sc, pushedPending, r.Client, h.Doc, measured)
			}
		}
	}

	res.Ratios = costmodel.Compare(res.Spec, res.Base)
	return res, nil
}

// rule is the selection rule the config's knobs describe.
func (c *Config) rule() speculation.Rule {
	return speculation.Rule{Mode: c.Mode, Tp: c.Tp, TopK: c.TopK, MaxSize: c.MaxSize, Embed: c.EmbedThreshold}
}

// siteSize is the size function the simulator selects with: a document's
// size on the site, unknown for anything off it.
func siteSize(site *webgraph.Site) func(webgraph.DocID) (int64, bool) {
	return func(d webgraph.DocID) (int64, bool) {
		if !site.Valid(d) {
			return 0, false
		}
		return site.Doc(d).Size, true
	}
}

// pushDoc delivers one speculative document: bytes are charged whether or
// not the client already had it (a non-cooperative server cannot know), but
// the cache and usage tracking only change on new documents.
func pushDoc(res *Result, cfg Config, sc cache.Cache,
	pending map[trace.ClientID]map[webgraph.DocID]bool,
	client trace.ClientID, d webgraph.DocID, measured bool) {

	size := cfg.Site.Doc(d).Size
	if measured {
		res.Spec.BytesSent += size
	}
	if sc.Has(d) {
		return
	}
	sc.Put(d, size)
	if measured {
		res.SpeculatedDocs++
	}
	markPending(pending, client, d, measured)
}

// prefetchDoc is a client-initiated background fetch: it costs a server
// request and bytes but no client-visible latency, and the client never
// prefetches what it has.
func prefetchDoc(res *Result, cfg Config, sc cache.Cache,
	pending map[trace.ClientID]map[webgraph.DocID]bool,
	client trace.ClientID, d webgraph.DocID, measured bool) {

	if sc.Has(d) {
		return
	}
	size := cfg.Site.Doc(d).Size
	if measured {
		res.Spec.BytesSent += size
		res.Spec.Requests++
		res.PrefetchedDocs++
	}
	sc.Put(d, size)
	markPending(pending, client, d, measured)
}

// markPending records a delivered document; the value remembers whether the
// delivery was inside the measurement window.
func markPending(pending map[trace.ClientID]map[webgraph.DocID]bool,
	client trace.ClientID, d webgraph.DocID, measured bool) {
	m := pending[client]
	if m == nil {
		m = make(map[webgraph.DocID]bool)
		pending[client] = m
	}
	m[d] = measured
}
