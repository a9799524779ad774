// Package core is the online form of the paper's two protocols — the
// library a production server embeds, as opposed to the trace-driven
// simulators used for evaluation.
//
// Engine implements speculative service (§3): it observes the server's
// request stream as it happens, maintains the document-dependency estimate
// P* with the §3.4 aging mechanism, and answers "what should be sent along
// with this document" — as documents to push, as prefetch hints, or as the
// hybrid of both.
//
// Replicator implements demand-based dissemination (§2): it tracks document
// popularity online, classifies documents, fits the exponential popularity
// model, and produces replica sets and per-server storage allocations for
// service proxies.
//
// Both types are safe for concurrent use. The engine's decision path
// (SpeculateInto/HintsInto/SplitInto) is lock-free: decisions read an
// immutable {frozen matrix, selection rule, size cache} snapshot published
// through an atomic pointer, and Record logs to striped shard buffers, so
// concurrent requests contend on nothing but their own shard.
package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specweb/internal/checkpoint"
	"specweb/internal/estguard"
	"specweb/internal/markov"
	"specweb/internal/obs"
	"specweb/internal/speculation"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// EngineConfig parameterizes the online speculation engine.
type EngineConfig struct {
	// Window and StrideTimeout are T_w and the stride bound of §3.2.
	Window        time.Duration
	StrideTimeout time.Duration
	// MinOccurrences and Smoothing control estimate robustness (see
	// markov.EstimateConfig).
	MinOccurrences int
	Smoothing      float64
	// DecayPerDay is the §3.4 aging factor applied at each refresh.
	DecayPerDay float64
	// RefreshEvery is how often the dependency estimate is re-snapshotted
	// (the paper's UpdateCycle; its baseline is one day).
	RefreshEvery time.Duration

	// Policy knobs.
	Tp      float64
	TopK    int   // when > 0, top-K selection instead of thresholding
	MaxSize int64 // 0 = ∞
	// EmbedThreshold splits hybrid responses: candidates at or above it
	// are pushed, the rest hinted.
	EmbedThreshold float64

	// RecordShards overrides the number of striped ingestion buffers
	// (rounded up to a power of two); 0 sizes them from GOMAXPROCS.
	RecordShards int

	// MaxRows and RowTopK, when either is positive, select the
	// memory-bounded streaming estimator instead of the exact one: at most
	// MaxRows documents tracked (popularity-ranked admission) with at most
	// RowTopK successors each (per-row space-saving). Whichever of the two
	// is zero takes markov.DefaultBounded's value. Both zero (the default)
	// keeps the exact estimator — the reference implementation the bounded
	// path is conformance-tested against.
	MaxRows int
	RowTopK int

	// Guard, when non-nil, installs the estguard robustness layer on the
	// refresh path: quarantined clients' transitions divert to a
	// side-ledger instead of P[i,j], per-row trust damps sparse or
	// poisoned rows before the freeze, drift can trigger an early
	// re-freeze, and candidate snapshots that would regress speculation
	// confidence past the guard's bound are rejected in favor of the
	// last-good frozen matrix.
	Guard *estguard.Guard

	// Feedback, when non-nil alongside Guard, supplies the attribution
	// ledger's cumulative delivered/consumed/wasted counts so snapshot
	// validation can calibrate its bound against realized interception.
	Feedback func() (delivered, consumed, wasted int64)

	// Checkpoint, when non-nil, persists the engine's trained state: every
	// accepted freeze writes a durable frame (the frozen matrix, the knobs
	// in force, and the guard's client/judge summaries), and WarmStart can
	// republish a decoded frame after a crash so interception survives the
	// restart. See internal/checkpoint and DESIGN §13.
	Checkpoint *checkpoint.Store

	// Metrics selects the registry the engine's metrics register in;
	// nil means the process-wide obs.Default.
	Metrics *obs.Registry
}

// DefaultEngineConfig mirrors the paper's baseline with a moderate
// threshold.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		MinOccurrences: 5,
		Smoothing:      2,
		DecayPerDay:    0.97,
		RefreshEvery:   24 * time.Hour,
		Tp:             0.25,
		EmbedThreshold: 0.95,
	}
}

// Validate reports configuration errors.
func (c *EngineConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("core: Window must be positive, got %v", c.Window)
	}
	if c.RefreshEvery <= 0 {
		return fmt.Errorf("core: RefreshEvery must be positive, got %v", c.RefreshEvery)
	}
	if c.DecayPerDay <= 0 || c.DecayPerDay > 1 {
		return fmt.Errorf("core: DecayPerDay %v outside (0,1]", c.DecayPerDay)
	}
	if c.Tp < 0 || c.Tp > 1 {
		return fmt.Errorf("core: Tp %v outside [0,1]", c.Tp)
	}
	if c.RecordShards < 0 {
		return fmt.Errorf("core: RecordShards %d negative", c.RecordShards)
	}
	if c.MaxRows < 0 {
		return fmt.Errorf("core: MaxRows %d negative", c.MaxRows)
	}
	if c.RowTopK < 0 {
		return fmt.Errorf("core: RowTopK %d negative", c.RowTopK)
	}
	return nil
}

// bounded resolves the estimator selection: enabled when either cap is
// set, with the other defaulted. Shared by NewEngine and StateFingerprint
// so the fingerprint always reflects the caps actually in force.
func (c *EngineConfig) bounded() (markov.BoundedConfig, bool) {
	if c.MaxRows <= 0 && c.RowTopK <= 0 {
		return markov.BoundedConfig{}, false
	}
	b := markov.BoundedConfig{MaxRows: c.MaxRows, RowTopK: c.RowTopK}
	d := markov.DefaultBounded()
	if b.MaxRows <= 0 {
		b.MaxRows = d.MaxRows
	}
	if b.RowTopK <= 0 {
		b.RowTopK = d.RowTopK
	}
	return b, true
}

// SizeFunc reports a document's size in bytes (and whether it exists).
// Engines consult it for the MaxSize provision.
type SizeFunc func(webgraph.DocID) (int64, bool)

// snapshot is the engine's immutable read-path state: one frozen matrix,
// the selection rule with the knobs in force, and the size cache resolved
// at publish time so decisions never call back into the store. A new
// snapshot is published on every refresh and every knob change; readers
// load it once per decision and never take a lock.
type snapshot struct {
	frozen *markov.Frozen
	rule   speculation.Rule
	// sizes caches SizeFunc results for every successor in frozen;
	// nil when the engine has no SizeFunc. Docs the SizeFunc does not
	// know are absent (treated as size-unknown, never filtered).
	sizes map[webgraph.DocID]int64

	// estStats is the estimator's footprint/eviction ledger captured at
	// the refresh that produced this snapshot; nil on exact-estimator
	// engines so Stats payloads stay byte-identical to pre-bounding
	// builds. Cached here so Stats() stays lock-free.
	estStats *markov.EstimatorStats
}

// recordShard is one striped ingestion buffer — the request logs of the
// clients that hash onto it — and those clients' outstanding offers. The
// padding keeps adjacent shards on separate cache lines so uncontended
// shard locks do not falsely share.
type recordShard struct {
	mu sync.Mutex
	// logs holds each client's accesses since its last closed stride, in
	// time order, as at.Sub(base): base is the shard's first access, so
	// gaps and order are exactly what Time.Sub gives, monotonic reading
	// included. Both are unset until that access.
	logs   map[trace.ClientID][]trace.Visit
	base   time.Time
	offers map[offerKey]offer // nil until the first Offer
	_      [64]byte
}

// log inserts client's access to doc into its log at its time position,
// after any entry with an equal time: each client's log is then its
// arrivals stably sorted by time, whatever order concurrent requests or
// delivery-stamped settlements reach the shard in.
func (sh *recordShard) log(client trace.ClientID, doc webgraph.DocID, at time.Time) {
	if sh.logs == nil {
		sh.logs = make(map[trace.ClientID][]trace.Visit)
		sh.base = at
	}
	v := trace.Visit{At: at.Sub(sh.base), Doc: doc}
	log := sh.logs[client]
	i := len(log)
	if i > 0 && log[i-1].At > v.At {
		i = sort.Search(i, func(k int) bool { return log[k].At > v.At })
	}
	log = append(log, trace.Visit{})
	copy(log[i+1:], log[i:])
	log[i] = v
	sh.logs[client] = log
}

// offerKey names an outstanding offer: one per client and document.
type offerKey struct {
	client trace.ClientID
	doc    webgraph.DocID
}

// offer is a document delivered ahead of demand whose fate the client has
// yet to report: when it was delivered — the time its access is logged
// under should it turn out used — and the probability it was advertised at,
// in thousandths, for whoever settles it to hold the outcome against.
type offer struct {
	at     time.Time
	pMilli int64
}

// Engine is the online speculative-service engine.
type Engine struct {
	cfg  EngineConfig
	size SizeFunc
	met  *engineMetrics

	// snap is the RCU-style published decision state.
	snap atomic.Pointer[snapshot]

	// Ingestion: Record hashes the client onto a shard and logs under
	// that shard's lock only; the refresh cycle cuts every shard's closed
	// strides under mu.
	shards    []recordShard
	shardMask uint32

	recorded    atomic.Int64
	lastRefresh atomic.Int64 // unix nanos; 0 = never
	started     atomic.Bool

	offersOut     atomic.Int64 // offers made and not yet settled or expired
	offersExpired atomic.Int64

	// Estimator-hardening counters (all zero without a Guard).
	refreshes      atomic.Int64
	earlyRefreshes atomic.Int64
	rejectedSnaps  atomic.Int64
	quarReqs       atomic.Int64
	driftChecks    atomic.Int64 // rate-limits DriftScore on the record path

	deltaFreezes atomic.Int64

	// mu serializes the write path: refreshes (cut + AddRuns + publish)
	// and knob changes (republish). The read path never takes it.
	mu         sync.Mutex
	est        markov.Estimator // exact (*markov.Aging) or bounded (*markov.Bounded)
	quarantine markov.Estimator // side-ledger for quarantined transitions; nil without a Guard
	// flush and runs hold the closed strides one refresh hands the
	// estimator; the next cycle reuses their arrays.
	flush []trace.Visit
	runs  []trace.Run
	// lastEstStats is the bounded estimator's ledger captured at the most
	// recent refresh (nil on exact engines); installLocked copies it into
	// the published snapshot for lock-free Stats.
	lastEstStats *markov.EstimatorStats
}

// engineMetrics are the engine's observability series. Decision counters
// share one family, split by outcome, so the speculative "what happened
// to each candidate above/below T_p" breakdown is one Prometheus query.
type engineMetrics struct {
	recorded         *obs.Counter
	refreshes        *obs.Counter
	earlyRefreshes   *obs.Counter
	rejectedSnaps    *obs.Counter
	push             *obs.Counter
	hint             *obs.Counter
	belowThreshold   *obs.Counter
	digestSuppressed *obs.Counter
	deltaFreezes     *obs.Counter
	refreshPhase     [numRefreshPhases]*obs.Histogram
	pairs            *obs.Gauge
	docs             *obs.Gauge
	estMemory        *obs.Gauge
	estTrackedPairs  *obs.Gauge
	estEvictedPairs  *obs.Gauge
	estEvictedRows   *obs.Gauge
	estErrorBound    *obs.Gauge
}

// The phases of one update cycle, in the order refreshLocked runs them;
// specweb_engine_refresh_seconds{phase} splits the cycle's cost by them.
const (
	phaseDrain      = iota // per-client cut: closed strides out of the shard logs
	phaseEstimate          // guard partition, decay and fold
	phaseFreeze            // compile to CSR, snapshot validation
	phasePublish           // size cache, rule, atomic install
	phaseCheckpoint        // durable frame; observed only with a store
	numRefreshPhases
)

var refreshPhaseNames = [numRefreshPhases]string{"drain", "estimate", "freeze", "publish", "checkpoint"}

// refreshClock times the phases of one cycle: one clock read per phase per
// cycle, none per request.
type refreshClock struct {
	met  *engineMetrics
	last time.Time
}

func (c *refreshClock) done(phase int) {
	now := time.Now()
	c.met.refreshPhase[phase].Observe(now.Sub(c.last).Seconds())
	c.last = now
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	const decisions = "specweb_engine_decisions_total"
	const decisionsHelp = "Speculation candidate decisions by outcome."
	var phases [numRefreshPhases]*obs.Histogram
	for i, name := range refreshPhaseNames {
		phases[i] = reg.Histogram("specweb_engine_refresh_seconds",
			"Time one update cycle spent in each phase (drain: cutting the closed strides out of the client logs), paid by the request that crossed the refresh deadline.",
			nil, obs.Labels{"phase": name})
	}
	return &engineMetrics{
		recorded:  reg.Counter("specweb_engine_recorded_total", "Client requests observed by the engine.", nil),
		refreshes: reg.Counter("specweb_engine_refreshes_total", "Dependency-matrix update cycles (the paper's UpdateCycle).", nil),
		earlyRefreshes: reg.Counter("specweb_engine_early_refreshes_total",
			"Update cycles triggered early by estimator drift.", nil),
		rejectedSnaps: reg.Counter("specweb_engine_snapshots_rejected_total",
			"Candidate snapshots rejected by the guard; last-good kept.", nil),
		push:             reg.Counter(decisions, decisionsHelp, obs.Labels{"decision": "push"}),
		hint:             reg.Counter(decisions, decisionsHelp, obs.Labels{"decision": "hint"}),
		belowThreshold:   reg.Counter(decisions, decisionsHelp, obs.Labels{"decision": "below_threshold"}),
		digestSuppressed: reg.Counter(decisions, decisionsHelp, obs.Labels{"decision": "digest_suppressed"}),
		deltaFreezes: reg.Counter("specweb_engine_delta_freezes_total",
			"Refreshes that patched dirty rows into the previous frozen matrix instead of rebuilding it.", nil),
		pairs: reg.Gauge("specweb_engine_pairs", "Dependency pairs in the current P* estimate.", nil),
		docs:  reg.Gauge("specweb_engine_docs", "Documents with at least one successor in P*.", nil),
		estMemory: reg.Gauge("specweb_estimator_memory_bytes",
			"Analytic live footprint of the dependency estimator.", nil),
		estTrackedPairs: reg.Gauge("specweb_estimator_tracked_pairs",
			"Dependency pairs currently tracked by the estimator.", nil),
		estEvictedPairs: reg.Gauge("specweb_estimator_evicted_pairs_total",
			"Cumulative pairs evicted by the bounded estimator's space-saving store.", nil),
		estEvictedRows: reg.Gauge("specweb_estimator_evicted_rows_total",
			"Cumulative rows displaced by the bounded estimator's admission policy.", nil),
		estErrorBound: reg.Gauge("specweb_estimator_error_bound",
			"Largest per-entry space-saving overcount currently tracked.", nil),
		refreshPhase: phases,
	}
}

// shardCount picks the stripe width: enough shards that concurrent clients
// rarely collide, bounded so the refresh drain stays cheap.
func shardCount(configured int) int {
	n := configured
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 2
	}
	if n < 4 {
		n = 4
	}
	if n > 128 {
		n = 128
	}
	// Round up to a power of two so the shard pick is a mask, not a mod.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewEngine builds an engine. size may be nil when MaxSize is unused.
func NewEngine(cfg EngineConfig, size SizeFunc) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est := markov.EstimateConfig{
		Window:         cfg.Window,
		StrideTimeout:  cfg.StrideTimeout,
		MinOccurrences: cfg.MinOccurrences,
		Smoothing:      cfg.Smoothing,
	}
	// DecayPerDay is specified per day; the aging estimator decays once
	// per refresh, so scale the factor to the configured cadence.
	decay := math.Pow(cfg.DecayPerDay, cfg.RefreshEvery.Hours()/24)
	if decay > 1 {
		decay = 1
	}
	// newEst builds the configured estimator: exact by default, the
	// memory-bounded streaming one when caps are set. Both the clean
	// estimate and the quarantined side-ledger use the same constructor so
	// their occurrence counts stay directly comparable for trust scoring.
	bcfg, boundedEst := cfg.bounded()
	newEst := func() markov.Estimator {
		if boundedEst {
			b := markov.NewBounded(decay, est, bcfg)
			b.Transitive = true // the engine speculates on P*, per the baseline
			return b
		}
		ag := markov.NewAging(decay, est)
		ag.Transitive = true
		return ag
	}
	n := shardCount(cfg.RecordShards)
	e := &Engine{
		cfg:       cfg,
		size:      size,
		met:       newEngineMetrics(cfg.Metrics),
		shards:    make([]recordShard, n),
		shardMask: uint32(n - 1),
		est:       newEst(),
	}
	if cfg.Guard != nil {
		// The quarantined side-ledger ages on the same cadence and with
		// the same windows as the clean estimate.
		e.quarantine = newEst()
	}
	e.installLocked(markov.Freeze(markov.NewMatrix()), nil)
	return e, nil
}

// shardOf hashes a client onto its stripe (FNV-1a, allocation-free).
func shardOf(c trace.ClientID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(c); i++ {
		h = (h ^ uint32(c[i])) * 16777619
	}
	return h
}

// Record observes one client-initiated request, entering it in its
// client's log at its time position; a refresh happens automatically when
// RefreshEvery has elapsed since the last one. Concurrent requests from
// different clients land on different shard buffers and never contend.
func (e *Engine) Record(client trace.ClientID, doc webgraph.DocID, at time.Time) {
	if !e.started.Load() {
		e.mu.Lock()
		if !e.started.Load() {
			e.lastRefresh.Store(at.UnixNano())
			e.started.Store(true)
		}
		e.mu.Unlock()
	}
	sh := &e.shards[shardOf(client)&e.shardMask]
	sh.mu.Lock()
	sh.log(client, doc, at)
	sh.mu.Unlock()
	e.noteRecorded(doc)
	if at.Sub(e.lastRefreshTime()) >= e.cfg.RefreshEvery {
		e.maybeRefresh(at)
	} else if e.cfg.Guard != nil {
		e.maybeEarlyRefresh(at)
	}
}

// noteRecorded counts one access entered in a shard log.
func (e *Engine) noteRecorded(doc webgraph.DocID) {
	e.recorded.Add(1)
	e.met.recorded.Inc()
	if g := e.cfg.Guard; g != nil {
		g.NoteRequest(doc)
	}
}

// Offer notes that doc went to client at `at` without its user having asked
// for it — a prefetch the client made on a hint advertised at pMilli
// thousandths. An offer counts for nothing: speculation must not become its
// own training data, so the access is observed only once Settle hears that
// the document was used. A later offer of the same document to the same
// client replaces the earlier one. Offers live in the client's record shard
// and are dropped by the refresh that finds them older than RefreshEvery.
func (e *Engine) Offer(client trace.ClientID, doc webgraph.DocID, at time.Time, pMilli int64) {
	key := offerKey{client, doc}
	sh := &e.shards[shardOf(client)&e.shardMask]
	sh.mu.Lock()
	if sh.offers == nil {
		sh.offers = make(map[offerKey]offer)
	}
	before := len(sh.offers)
	sh.offers[key] = offer{at: at, pMilli: pMilli}
	added := len(sh.offers) > before
	sh.mu.Unlock()
	if added {
		e.offersOut.Add(1)
	}
}

// Settle closes client's outstanding offer of doc with the client's report.
// Used, the access enters the log stamped with the offer's delivery time —
// where Record would have put it had the prefetch been a click — so the
// pairs it forms depend on when the document was delivered, not on when the
// report arrived; unused, the offer is forgotten. It returns the probability
// the offer was advertised at. ok is false, and nothing changes, when no
// such offer is outstanding: never made, settled already, or expired.
func (e *Engine) Settle(client trace.ClientID, doc webgraph.DocID, used bool) (pMilli int64, ok bool) {
	key := offerKey{client, doc}
	sh := &e.shards[shardOf(client)&e.shardMask]
	sh.mu.Lock()
	o, ok := sh.offers[key]
	if ok {
		delete(sh.offers, key)
		if used {
			sh.log(client, doc, o.at)
		}
	}
	sh.mu.Unlock()
	if !ok {
		return 0, false
	}
	e.offersOut.Add(-1)
	if used {
		e.noteRecorded(doc)
	}
	return o.pMilli, true
}

// maybeEarlyRefresh re-freezes before the regular deadline when the guard
// reports real drift — a flash crowd or diurnal shift has made the frozen
// snapshot stale. Two gates keep this cheap and bounded: the drift score
// is only computed every 64th recorded request, and never before
// EarlyRefreshFraction of the refresh interval has elapsed (so a
// deterministic benchmark that freezes its virtual clock after warmup can
// never trigger a mid-measurement refresh).
func (e *Engine) maybeEarlyRefresh(at time.Time) {
	g := e.cfg.Guard
	minElapsed := time.Duration(g.EarlyRefreshFraction() * float64(e.cfg.RefreshEvery))
	if at.Sub(e.lastRefreshTime()) < minElapsed {
		return
	}
	if e.driftChecks.Add(1)&63 != 0 {
		return
	}
	if g.DriftScore() < g.DriftThreshold() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if at.Sub(e.lastRefreshTime()) < minElapsed {
		return
	}
	if g.DriftScore() < g.DriftThreshold() {
		return
	}
	e.earlyRefreshes.Add(1)
	e.met.earlyRefreshes.Inc()
	e.refreshLocked(at)
}

func (e *Engine) lastRefreshTime() time.Time {
	ns := e.lastRefresh.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// maybeRefresh re-checks the refresh deadline under the write lock, so a
// burst of requests crossing the boundary triggers exactly one cycle.
func (e *Engine) maybeRefresh(at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if at.Sub(e.lastRefreshTime()) < e.cfg.RefreshEvery {
		return
	}
	e.refreshLocked(at)
}

// Refresh folds the buffered requests into the aged estimate immediately.
func (e *Engine) Refresh(at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshLocked(at)
}

func (e *Engine) refreshLocked(at time.Time) {
	clock := refreshClock{met: e.met, last: time.Now()}
	// Cut every client's log where its closed strides end: they go to the
	// estimator, and the trailing stride, still open at the refresh
	// instant, stays in the log — otherwise a refresh landing mid-stride
	// would permanently split the dependency pair across windows.
	var expired int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		now := at.Sub(sh.base)
		for c, log := range sh.logs {
			cut := closedPrefix(log, now, e.cfg.StrideTimeout)
			if cut == 0 {
				continue
			}
			// Runs cut before an append regrows flush keep viewing the
			// array they were copied into, which nothing writes again.
			n := len(e.flush)
			e.flush = append(e.flush, log[:cut]...)
			e.runs = append(e.runs, trace.Run{Client: c, Visits: e.flush[n:len(e.flush):len(e.flush)]})
			if cut == len(log) {
				delete(sh.logs, c)
			} else {
				sh.logs[c] = log[:copy(log, log[cut:])]
			}
		}
		// An offer nobody reported on within one cycle is given up: the
		// client is gone or its report was lost, and the set stays bounded
		// by what one RefreshEvery can deliver.
		for key, o := range sh.offers {
			if at.Sub(o.at) > e.cfg.RefreshEvery {
				delete(sh.offers, key)
				expired++
			}
		}
		sh.mu.Unlock()
	}
	if expired > 0 {
		e.offersOut.Add(-expired)
		e.offersExpired.Add(expired)
	}
	// The estimators take clients in sorted order, so their event stream
	// does not depend on map iteration or shard layout.
	slices.SortFunc(e.runs, func(a, b trace.Run) int { return cmp.Compare(a.Client, b.Client) })
	flush := e.runs
	clock.done(phaseDrain)

	// Estimator hardening: classify the flushed clients and divert
	// quarantined transitions into the side-ledger. The side-ledger
	// ages every cycle (even with nothing quarantined this window) so its
	// occurrence counts decay in lockstep with the clean estimate.
	g := e.cfg.Guard
	if g != nil {
		clean, quar := g.Partition(flush)
		var n int64
		for _, run := range quar {
			n += int64(len(run.Visits))
		}
		e.quarReqs.Add(n)
		if err := e.quarantine.AddRuns(quar); err != nil {
			panic(fmt.Sprintf("core: refresh quarantine ledger: %v", err))
		}
		flush = clean
	}

	// AddRuns never fails here: the config was validated at construction.
	if err := e.est.AddRuns(flush); err != nil {
		panic(fmt.Sprintf("core: refresh: %v", err))
	}
	clear(e.runs) // drop the client IDs until the next cycle fills it
	e.runs = e.runs[:0]
	if cap(e.flush) > 1<<16 {
		e.flush = nil // don't pin a giant buffer across quiet cycles
	} else {
		e.flush = e.flush[:0]
	}
	e.lastRefresh.Store(at.UnixNano())
	e.refreshes.Add(1)
	e.met.refreshes.Inc()
	e.captureEstStatsLocked()
	clock.done(phaseEstimate)

	// Confidence damping: under a guard each candidate row is scaled by
	// its trust — sample support × clean fraction against the side-ledger
	// — so sparse or poisoned rows sink below the push/hint thresholds
	// instead of driving speculation.
	var trust func(webgraph.DocID) float64
	if g != nil {
		trust = func(i webgraph.DocID) float64 {
			return g.RowTrust(e.est.Occurrences(i), e.quarantine.Occurrences(i))
		}
	}
	frozen, patched := e.est.Freeze(trust)
	if patched {
		e.deltaFreezes.Add(1)
		e.met.deltaFreezes.Inc()
	}

	// Snapshot validation: a candidate whose predicted interception
	// regresses past the guard's bound is rejected, and the last-good
	// frozen matrix keeps serving — the estimator's analogue of the
	// Replicator's last-good-fit fallback. The aging state still advanced
	// above, so decay can repair the estimate on later cycles.
	accepted := true
	if g != nil {
		var fb estguard.Feedback
		if e.cfg.Feedback != nil {
			fb.Delivered, fb.Consumed, fb.Wasted = e.cfg.Feedback()
		}
		accepted = g.AcceptSnapshot(frozen, e.cfg.Tp, fb)
	}
	clock.done(phaseFreeze)
	if !accepted {
		e.rejectedSnaps.Add(1)
		e.met.rejectedSnaps.Inc()
		return
	}

	e.installLocked(frozen, e.snapshotSizes(frozen))
	e.met.pairs.Set(float64(frozen.NumPairs()))
	e.met.docs.Set(float64(frozen.NumRows()))
	clock.done(phasePublish)

	if e.cfg.Checkpoint != nil {
		e.saveCheckpointLocked(at)
		clock.done(phaseCheckpoint)
	}
}

// captureEstStatsLocked records the estimator's footprint and eviction
// ledger after an AddDay, on bounded engines only — exact engines keep
// the field nil so their Stats payloads are byte-identical to
// pre-bounding builds. Also publishes the estimator gauge series.
func (e *Engine) captureEstStatsLocked() {
	if _, ok := e.cfg.bounded(); !ok {
		return
	}
	st := e.est.EstimatorStats()
	e.lastEstStats = &st
	e.met.estMemory.Set(float64(st.MemoryBytes))
	e.met.estTrackedPairs.Set(float64(st.TrackedPairs))
	e.met.estEvictedPairs.Set(float64(st.EvictedPairs))
	e.met.estEvictedRows.Set(float64(st.EvictedRows))
	e.met.estErrorBound.Set(st.ErrorBound)
}

// snapshotSizes resolves the SizeFunc once per distinct successor at
// publish time, so the decision path reads a plain map instead of calling
// into the store.
func (e *Engine) snapshotSizes(f *markov.Frozen) map[webgraph.DocID]int64 {
	if e.size == nil {
		return nil
	}
	sizes := make(map[webgraph.DocID]int64)
	f.RangeRows(func(_ webgraph.DocID, row []markov.Successor) bool {
		for _, s := range row {
			if _, seen := sizes[s.Doc]; seen {
				continue
			}
			if sz, ok := e.size(s.Doc); ok {
				sizes[s.Doc] = sz
			}
		}
		return true
	})
	return sizes
}

// installLocked publishes frozen with the knobs currently in cfg. Callers
// hold mu (or are the constructor).
func (e *Engine) installLocked(frozen *markov.Frozen, sizes map[webgraph.DocID]int64) {
	e.snap.Store(&snapshot{
		frozen: frozen,
		rule: speculation.Rule{Tp: e.cfg.Tp, TopK: e.cfg.TopK, MaxSize: e.cfg.MaxSize,
			Embed: e.cfg.EmbedThreshold},
		sizes:    sizes,
		estStats: e.lastEstStats,
	})
}

// size reads the size cache in the kernel's form.
func (s *snapshot) size(doc webgraph.DocID) (int64, bool) {
	sz, ok := s.sizes[doc]
	return sz, ok
}

// closedPrefix is how many of a client's time-ordered log entries are
// final at instant now (both timed from the shard's base): all of them
// unless the trailing stride is still open — its last entry within
// strideTimeout of now — in which case the stride, reaching back while
// gaps stay under strideTimeout, is kept.
func closedPrefix(log []trace.Visit, now, strideTimeout time.Duration) int {
	n := len(log)
	if strideTimeout <= 0 || now-log[n-1].At >= strideTimeout {
		return n
	}
	cut := n - 1
	for cut > 0 && log[cut].At-log[cut-1].At < strideTimeout {
		cut--
	}
	return cut
}

// Decision is a reusable buffer for one request's speculation outcome.
// Acquire one from the pool, pass it to the *Into decision methods, and
// Release it when the response has been written; the backing arrays are
// recycled, which is what keeps the decision path allocation-free.
type Decision = speculation.Decision

var decisionPool = sync.Pool{New: func() any { return new(Decision) }}

// AcquireDecision returns a cleared Decision from the shared pool.
func AcquireDecision() *Decision {
	return decisionPool.Get().(*Decision)
}

// ReleaseDecision resets d and returns it to the pool. The caller must not
// retain d.Push or d.Hints afterwards.
func ReleaseDecision(d *Decision) {
	if d == nil {
		return
	}
	d.Reset()
	decisionPool.Put(d)
}

// decide runs the selection kernel for doc over the published snapshot in
// the given mode, with the cooperative digest as the exclusion, and counts
// the candidates the digest suppressed and the successors the rule left
// out. Lock-free and allocation-free given warm buffers.
func (e *Engine) decide(d *Decision, doc webgraph.DocID, have map[webgraph.DocID]bool, mode speculation.Mode) {
	snap := e.snap.Load()
	rule := snap.rule
	rule.Mode = mode
	var held func(webgraph.DocID) bool
	if have != nil {
		held = func(c webgraph.DocID) bool { return have[c] }
	}
	kept, suppressed := rule.Decide(d, snap.frozen, doc, snap.size, held)
	e.met.digestSuppressed.Add(int64(suppressed))
	e.met.belowThreshold.Add(int64(snap.frozen.RowLen(doc) - kept))
}

// SpeculateInto fills d.Push with the documents to push along with doc,
// excluding any the caller knows the client has (the cooperative digest;
// may be nil). It takes no locks and, with a pooled Decision, allocates
// nothing.
func (e *Engine) SpeculateInto(d *Decision, doc webgraph.DocID, have map[webgraph.DocID]bool) {
	e.decide(d, doc, have, speculation.ModePush)
	e.met.push.Add(int64(len(d.Push)))
}

// HintsInto fills d.Hints with the server-assisted prefetching list for
// doc. Lock-free; allocation-free with a pooled Decision.
func (e *Engine) HintsInto(d *Decision, doc webgraph.DocID, have map[webgraph.DocID]bool) {
	e.decide(d, doc, have, speculation.ModeHints)
	e.met.hint.Add(int64(len(d.Hints)))
}

// SplitInto fills d with the hybrid response for doc: candidates at or
// above EmbedThreshold in d.Push, the rest in d.Hints. Lock-free;
// allocation-free with a pooled Decision.
func (e *Engine) SplitInto(d *Decision, doc webgraph.DocID, have map[webgraph.DocID]bool) {
	e.decide(d, doc, have, speculation.ModeHybrid)
	e.met.push.Add(int64(len(d.Push)))
	e.met.hint.Add(int64(len(d.Hints)))
}

// SetTp replaces the speculation threshold at runtime — the §3.4 knob an
// overload governor turns as load climbs. The same range check as
// Config.Validate applies: Tp outside [0,1] is rejected. The change is
// published as a fresh snapshot over the current frozen matrix, so
// in-flight decisions see either the old or the new threshold, never a
// mix.
func (e *Engine) SetTp(tp float64) error {
	if tp < 0 || tp > 1 {
		return fmt.Errorf("core: Tp %v outside [0,1]", tp)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.Tp = tp
	prev := e.snap.Load()
	e.installLocked(prev.frozen, prev.sizes)
	return nil
}

// SetLimits replaces the MaxSize and TopK provisions at runtime (0
// restores "unbounded" / "threshold-only" respectively); negatives are
// rejected.
func (e *Engine) SetLimits(maxSize int64, topK int) error {
	if maxSize < 0 {
		return fmt.Errorf("core: MaxSize %d negative", maxSize)
	}
	if topK < 0 {
		return fmt.Errorf("core: TopK %d negative", topK)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.MaxSize = maxSize
	e.cfg.TopK = topK
	prev := e.snap.Load()
	e.installLocked(prev.frozen, prev.sizes)
	return nil
}

// Tp reports the threshold currently in force.
func (e *Engine) Tp() float64 {
	return e.snap.Load().rule.Tp
}

// Stats reports the engine's observable state. The estimator-hardening
// counters are omitted from JSON while zero, so stats payloads are
// byte-identical to pre-guard builds when the feature is off.
type Stats struct {
	Recorded   int64
	Pairs      int
	Docs       int
	LastUpdate time.Time

	Refreshes           int64 `json:",omitempty"`
	EarlyRefreshes      int64 `json:",omitempty"`
	SnapshotsRejected   int64 `json:",omitempty"`
	QuarantinedRequests int64 `json:",omitempty"`

	// DeltaFreezes counts refreshes that patched dirty rows into the
	// previous frozen matrix instead of rebuilding it.
	DeltaFreezes int64 `json:",omitempty"`

	// OffersOutstanding counts prefetched documents whose clients have not
	// yet reported them used or unused; OffersExpired those a refresh gave
	// up on after one RefreshEvery without a report.
	OffersOutstanding int64 `json:",omitempty"`
	OffersExpired     int64 `json:",omitempty"`

	// Estimator is the bounded estimator's footprint and eviction ledger
	// as of the last refresh; nil (and omitted) on exact-estimator
	// engines, so stats payloads are byte-identical to pre-bounding
	// builds when the feature is off.
	Estimator *markov.EstimatorStats `json:",omitempty"`

	// Checkpoint is the durability tally; nil (and omitted) when the
	// engine runs without a checkpoint store, so stats payloads are
	// byte-identical to pre-checkpoint builds when the feature is off.
	Checkpoint *checkpoint.Counters `json:",omitempty"`
}

// Stats returns a snapshot of the engine state.
func (e *Engine) Stats() Stats {
	snap := e.snap.Load()
	s := Stats{
		Recorded:            e.recorded.Load(),
		Pairs:               snap.frozen.NumPairs(),
		Docs:                snap.frozen.NumRows(),
		LastUpdate:          e.lastRefreshTime(),
		Refreshes:           e.refreshes.Load(),
		EarlyRefreshes:      e.earlyRefreshes.Load(),
		SnapshotsRejected:   e.rejectedSnaps.Load(),
		QuarantinedRequests: e.quarReqs.Load(),
		DeltaFreezes:        e.deltaFreezes.Load(),
		OffersOutstanding:   e.offersOut.Load(),
		OffersExpired:       e.offersExpired.Load(),
		Estimator:           snap.estStats,
	}
	if st := e.cfg.Checkpoint; st != nil {
		c := st.Counters()
		s.Checkpoint = &c
	}
	return s
}

// ClientStatus reports the guard's classification for a client. Without a
// guard every client is Human. Lock-free; safe on the serve hot path.
func (e *Engine) ClientStatus(client trace.ClientID) (estguard.Status, string) {
	if e.cfg.Guard == nil {
		return estguard.Human, ""
	}
	return e.cfg.Guard.Status(client)
}

// Guard returns the engine's estimator guard, or nil when hardening is
// not installed.
func (e *Engine) Guard() *estguard.Guard { return e.cfg.Guard }
