package loadgen

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sync/atomic"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/estguard"
	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience"
	"specweb/internal/resilience/faults"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// Config parameterizes one load-generation run (one arm).
type Config struct {
	// Workload selects the synthetic site/trace model; the zero value
	// means experiments.SmallWorkload(). The trace supplies the session
	// mix: client population, per-client request order, and session
	// boundaries all come from the generated trace.
	Workload experiments.WorkloadConfig
	// Seed drives the generator's own randomness (think-time jitter)
	// through per-worker stats.RNG streams; 0 uses Workload.Seed.
	Seed int64
	// Workers is the number of concurrent client drivers (default 4).
	// Clients are partitioned across workers by a stable hash, so each
	// client's request order is preserved no matter the worker count.
	Workers int
	// WarmupFraction is the leading share of the trace replayed
	// sequentially on trace time to train the speculation engine before
	// measurement begins (default 0.3). The engine is refreshed once at
	// the warmup boundary and its model then stays frozen, which is
	// what makes the measured counters deterministic under concurrency.
	WarmupFraction float64

	// Speculate selects the arm: true drives speculative clients
	// against Mode; false drives plain clients (no bundles, no
	// prefetching) against a push-mode server, which never speculates
	// for a client that did not opt in.
	Speculate bool
	// Mode is the server's delivery mode for the speculative arm; the
	// zero value is ModePush.
	Mode httpspec.Mode
	// MaxPush bounds documents pushed per response (default 16).
	MaxPush int
	// Cooperative piggybacks cache digests; PrefetchThreshold enables
	// hint-driven prefetching (0 disables).
	Cooperative       bool
	PrefetchThreshold float64
	// SessionGapRequests ends a client's session after this many
	// requests (default 50; negative disables).
	SessionGapRequests int
	// Reps repeats each arm and keeps the best-throughput rep's Timing
	// (default 1). The deterministic section is identical across reps,
	// so extra reps only de-noise the wall-clock metrics: best-of-N is
	// what makes a 10% regression gate hold on a shared CI runner.
	Reps int

	// OpenLoop switches to paced arrival at Rate requests/second in
	// groups of Burst: the dispatcher hands requests to workers on
	// schedule without waiting for responses, and latency is measured
	// from the scheduled arrival (so queueing delay is charged — no
	// coordinated omission). The default closed loop has each worker
	// walk its clients' requests back-to-back, separated by Think.
	OpenLoop bool
	Rate     float64
	Burst    int
	// Think and ThinkJitter separate a worker's consecutive requests in
	// closed-loop mode: Think plus a uniform draw from [0, ThinkJitter)
	// off the worker's RNG stream.
	Think       time.Duration
	ThinkJitter time.Duration

	// BaseURL drives an external server instead of the in-process
	// stack. Network runs measure real sockets but cannot promise the
	// deterministic section stays byte-identical (the server's own
	// clock governs its speculation refreshes).
	BaseURL string
	// RealClock makes the in-process server use wall-clock time instead
	// of the frozen trace clock — required when an overload Governor
	// should see real latencies, at the cost of count determinism.
	RealClock bool
	// Faults injects transport faults (seeded); chaos runs are not
	// byte-deterministic because workers consume the fault stream in
	// completion order.
	Faults faults.Config
	// Timeout bounds each request attempt; Retry configures demand
	// retries through one shared budget.
	Timeout time.Duration
	Retry   resilience.RetryConfig

	// Estguard installs the estimator-hardening guard on the in-process
	// server: client classification/quarantine, drift-triggered early
	// refresh, and confidence-damped snapshots (see internal/estguard).
	// The guard's decisions are functions of the recorded trace and the
	// seed, so guarded runs remain byte-deterministic.
	Estguard bool
	// MaxRows and RowTopK select the memory-bounded streaming estimator
	// on the in-process server (see core.EngineConfig); both zero keeps
	// the exact estimator and a byte-identical report.
	MaxRows int
	RowTopK int
	// Overload installs an admission controller and governor on the
	// in-process server; AdmissionTune adjusts the controller config
	// before construction. With generous slots the controller admits
	// everything and the run stays deterministic. The tuning hooks are
	// process-local and excluded from the distributed wire job.
	Overload      bool
	AdmissionTune func(*overload.Config) `json:"-"`
	// ServerTune is the escape hatch for any other server knob.
	ServerTune func(*httpspec.ServerConfig) `json:"-"`

	// Restart, when non-nil, splits the measurement phase with a
	// simulated server crash at CrashFraction and rebuilds the stack
	// according to Mode (see RestartConfig). In-process closed-loop runs
	// only; per-phase counters land in Result.Restart.
	Restart *RestartConfig

	// Stream selects the workload source: per-client seeded cursors
	// (synth.Stream) instead of a materialized trace. The drive loop is the
	// same either way — warmup walks the canonical order sequentially, then
	// every driver consumes its own clients' stream — but a cursor source
	// regenerates requests on demand, so peak memory is O(clients +
	// concurrent sessions) instead of O(trace). The generator itself
	// refuses scenarios (cross-client overlays have no per-client cursor).
	Stream bool
	// StreamMaterialize (with Stream) materializes that same per-client
	// stream into a trace first and drives from the trace: the conformance
	// oracle the cursor source is byte-compared against.
	StreamMaterialize bool

	// ShardIndex/ShardCount restrict the measurement phase to the
	// clients hashed to this shard (same stable hash as the worker
	// partition). Every shard replays the full warmup — so all shards
	// freeze the identical speculation model — and then drives only its
	// own clients; a coordinator merges the shards' partial reports into
	// a document byte-identical to the single-process run (see Partial).
	// ShardCount 0 or 1 means unsharded.
	ShardIndex int
	ShardCount int
}

func (c Config) withDefaults() Config {
	if c.Workload.Profile.Pages == 0 {
		c.Workload = experiments.SmallWorkload()
	}
	if c.Seed == 0 {
		c.Seed = c.Workload.Seed
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.WarmupFraction <= 0 || c.WarmupFraction >= 0.95 {
		c.WarmupFraction = 0.3
	}
	if c.MaxPush == 0 {
		c.MaxPush = 16
	}
	if c.SessionGapRequests == 0 {
		c.SessionGapRequests = 50
	}
	if c.SessionGapRequests < 0 {
		c.SessionGapRequests = 0
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if !c.Speculate {
		c.Mode = httpspec.ModePush
		c.Cooperative = false
		c.PrefetchThreshold = 0
	}
	return c
}

// attribTopDocs is how many per-doc attribution rows a BENCH report
// carries: enough to name the heavy hitters without bloating the file.
const attribTopDocs = 10

// validateModes rejects the combinations a sharded run cannot merge.
func (c Config) validateModes() error {
	if c.ShardCount < 0 || c.ShardIndex < 0 {
		return fmt.Errorf("loadgen: negative shard index/count")
	}
	if c.ShardCount > 1 || c.ShardIndex > 0 {
		if c.ShardIndex >= c.ShardCount {
			return fmt.Errorf("loadgen: shard index %d out of range for %d shards", c.ShardIndex, c.ShardCount)
		}
		switch {
		case c.Restart != nil:
			return fmt.Errorf("loadgen: restart harness cannot run sharded")
		case c.Estguard:
			return fmt.Errorf("loadgen: estguard cannot run sharded (warmup feedback sees only shard clients)")
		case c.MaxRows > 0 || c.RowTopK > 0:
			return fmt.Errorf("loadgen: bounded-estimator stats cannot be merged across shards")
		case c.BaseURL != "":
			return fmt.Errorf("loadgen: network mode cannot run sharded (each shard replays the full warmup)")
		case c.RealClock:
			return fmt.Errorf("loadgen: real-clock mode cannot run sharded")
		case c.Faults.Enabled():
			return fmt.Errorf("loadgen: fault injection cannot run sharded (the fault stream is per-process)")
		}
	}
	return nil
}

// inShard reports whether a client's measurement phase belongs to this
// process. The hash is the same stable FNV used for the in-process
// worker partition, so shard membership never depends on trace position.
func (c Config) inShard(id trace.ClientID) bool {
	if c.ShardCount <= 1 {
		return true
	}
	return workerOf(id, c.ShardCount) == c.ShardIndex
}

// laneOf names the worker that drives a client's measurement phase, or -1
// when the client belongs to another shard.
func (c Config) laneOf(id trace.ClientID) int {
	if !c.inShard(id) {
		return -1
	}
	return workerOf(id, c.Workers)
}

// info echoes the (defaulted) configuration into the report.
func (c Config) info() ConfigInfo {
	info := ConfigInfo{
		Profile:            c.Workload.Profile.Name,
		Days:               c.Workload.Days,
		SessionsPerDay:     c.Workload.SessionsPerDay,
		Seed:               c.Seed,
		Workers:            c.Workers,
		WarmupFraction:     c.WarmupFraction,
		Mode:               modeName(c.Mode),
		MaxPush:            c.MaxPush,
		Cooperative:        c.Cooperative,
		PrefetchThreshold:  c.PrefetchThreshold,
		SessionGapRequests: c.SessionGapRequests,
		Reps:               c.Reps,
		OpenLoop:           c.OpenLoop,
		Rate:               c.Rate,
		Burst:              c.Burst,
		ThinkMS:            float64(c.Think) / 1e6,
		RealClock:          c.RealClock,
		Network:            c.BaseURL != "",
		Chaos:              c.Faults.Enabled(),
		Overload:           c.Overload,
		Scenario:           c.Workload.Scenario,
		Estguard:           c.Estguard,
		MaxRows:            c.MaxRows,
		RowTopK:            c.RowTopK,
		Stream:             c.Stream,
	}
	if info.Scenario == "none" {
		info.Scenario = ""
	}
	return info
}

func modeName(m httpspec.Mode) string {
	switch m {
	case httpspec.ModeHints:
		return "hints"
	case httpspec.ModeHybrid:
		return "hybrid"
	}
	return "push"
}

// run is the shared state of one arm, filled in stage by stage: source,
// stack, warmup, drive, aggregate.
type run struct {
	cfg  Config
	src  source
	site *webgraph.Site
	// n requests in the source, the first warmN of them warmup.
	n, warmN int

	// vnow is the virtual clock: warmup advances it along trace time;
	// after the freeze every server-side timestamp is the warmup boundary,
	// so the engine never auto-refreshes mid-measurement and its
	// speculation model stays the frozen snapshot.
	vnow     atomic.Int64
	freezeAt time.Time

	base    string
	hc      *http.Client
	srv     *httpspec.Server  // nil in network mode
	guard   *estguard.Guard   // the current server's, when cfg.Estguard
	ckstore *checkpoint.Store // restart harness only
	swap    *switchHandler    // restart harness only
	led     *attrib.Ledger    // speculative arm only

	clients map[trace.ClientID]*Client
	// order preserves first-appearance order for deterministic
	// aggregation (map iteration order must not leak into anything).
	order []trace.ClientID

	warmupErrors int64
	// frozen is the clients' summed counters at the warmup boundary;
	// measurement counts are totals minus this.
	frozen httpspec.ClientStats
	// ovFreeze is the server's overload ledger at the same instant: a
	// coordinator reconstructs single-process totals as freeze + Σ
	// per-shard measurement deltas.
	ovFreeze *httpspec.ServerOverloadStats
	// results holds one wall-clock ledger per worker, accumulated across
	// the measurement's phases.
	results []*workerResult
}

// Client pairs the protocol client with its session counter.
type Client struct {
	c            *httpspec.Client
	sinceSession int
}

// workerResult is one worker's wall-clock ledger.
type workerResult struct {
	hist       *Hist
	errors     int64
	missDurSum time.Duration
	missCount  int64
}

// Run executes one arm: build the workload, stand up the stack, replay
// the warmup sequentially on trace time, freeze the speculation model,
// then drive the measurement phase from Workers concurrent client
// drivers. The returned Result's Counts and Ratios are deterministic for
// a given config (virtual clock, no faults); Timing is wall-clock.
func Run(cfg Config) (*Result, *WorkloadInfo, ConfigInfo, error) {
	res, _, winfo, info, err := runArm(cfg)
	return res, winfo, info, err
}

// runArm is Run plus the arm's raw mergeable state, which RunPartial
// ships to a coordinator.
func runArm(cfg Config) (*Result, PartialArm, *WorkloadInfo, ConfigInfo, error) {
	cfg = cfg.withDefaults()
	info := cfg.info()
	fail := func(err error) (*Result, PartialArm, *WorkloadInfo, ConfigInfo, error) {
		return nil, PartialArm{}, nil, info, err
	}
	if err := cfg.validateModes(); err != nil {
		return fail(err)
	}
	if cfg.Restart != nil {
		rst, err := cfg.Restart.validate(cfg)
		if err != nil {
			return fail(err)
		}
		cfg.Restart, info.Restart = rst, rst
	}

	r := &run{cfg: cfg}
	winfo, err := r.openSource()
	if err != nil {
		return fail(err)
	}
	if cfg.Speculate {
		// One shared attribution ledger for the speculative arm. Capacity
		// covers the whole site, so the space-saving sketch never evicts
		// and its updates commute — the report is byte-identical no matter
		// how many workers raced or in what order their sessions resolved.
		r.led = attrib.NewLedger(r.site.NumDocs(), obs.NewRegistry())
	}
	cleanup, err := r.buildStack()
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	r.newClients()

	cut := &cutter{cfg: cfg, s: r.src.All(), seen: make([]int, cfg.Workers)}
	skips := r.warmup(cut)

	start := time.Now()
	restartInfo, err := r.drive(cut, skips)
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)

	res, arm := r.aggregate(elapsed)
	res.Restart = restartInfo
	r.serverSections(res)
	arm.OverloadFreeze, arm.OverloadEnd = r.ovFreeze, res.Overload
	if r.led != nil {
		// Drain the ledger: every speculative copy still sitting unused
		// in a session cache is waste. Client order is fixed for
		// reproducible logs, though the ledger commutes regardless.
		for _, id := range r.order {
			r.clients[id].c.ResolveOutstanding()
		}
		res.Attrib = r.led.Report(attribTopDocs)
		arm.Attrib = r.led.Export()
	}
	res.Timing.Memory = heapNow()
	return res, arm, winfo, info, nil
}

// openSource builds the workload source and sizes it: one counting pass
// fixes the warmup boundary and the client set. A cursor source trades
// that repeated generation (cheap, CPU-bound) for never holding the trace
// (expensive, O(requests) memory).
func (r *run) openSource() (*WorkloadInfo, error) {
	cfg := r.cfg
	if cfg.Stream {
		sw, err := experiments.BuildStream(cfg.Workload)
		if err != nil {
			return nil, err
		}
		r.site = sw.Site
		if cfg.StreamMaterialize {
			r.src = traceSource{trace.Materialize(sw.Gen.Merged())}
		} else {
			r.src = cursorSource{sw.Gen}
		}
	} else {
		wl, err := experiments.Build(cfg.Workload)
		if err != nil {
			return nil, err
		}
		r.site, r.src = wl.Site, traceSource{wl.Trace}
	}

	var first time.Time
	r.n, r.order, first = trace.CountStream(r.src.All())
	if r.n == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}
	r.warmN = int(cfg.WarmupFraction * float64(r.n))
	r.freezeAt = first
	r.vnow.Store(first.UnixNano())
	return &WorkloadInfo{
		Pages:    r.site.NumPages(),
		Clients:  len(r.order),
		Trace:    r.n,
		Warmup:   r.warmN,
		Measured: r.n - r.warmN,
		Bytes:    r.site.TotalBytes(),
	}, nil
}

// newClients builds one protocol client per trace client, in
// first-appearance order, all sharing the stack's transport.
func (r *run) newClients() {
	cfg := r.cfg
	// One retrier shares the retry budget across all clients, as in
	// cmd/replay.
	var retrier *resilience.Retrier
	if cfg.Retry.MaxAttempts > 1 {
		retrier = resilience.NewRetrier(cfg.Retry)
	}
	r.clients = make(map[trace.ClientID]*Client, len(r.order))
	for _, id := range r.order {
		// In a sharded run the attribution ledger is attached only to
		// this shard's clients: non-shard clients replay warmup without
		// recording deliveries, exactly the slice of ledger traffic that
		// belongs to some other shard. Ledger operations partition
		// exactly by client, so the coordinator's merge of shard exports
		// reproduces the single-process ledger.
		var clientLed *attrib.Ledger
		if cfg.inShard(id) {
			clientLed = r.led
		}
		r.clients[id] = &Client{c: httpspec.NewClient(r.base, httpspec.ClientConfig{
			ID:                string(id),
			AcceptBundles:     cfg.Speculate,
			Cooperative:       cfg.Cooperative,
			PrefetchThreshold: cfg.PrefetchThreshold,
			HTTP:              r.hc,
			Timeout:           cfg.Timeout,
			Retrier:           retrier,
			Attrib:            clientLed,
		})}
	}
}

// warmup replays the leading warmN requests sequentially, on trace time,
// over the FULL client population even when sharded — every shard must
// freeze the identical speculation model. Auto-refreshes fire exactly as
// the timestamps dictate. It then freezes the clock, refreshes the engine
// once, and snapshots the counters measurement is taken relative to. The
// returned cut is where each worker's measurement begins on its own lane.
func (r *run) warmup(cut *cutter) []int {
	skips := cut.advance(r.warmN, func(req trace.Request) {
		r.vnow.Store(req.Time.UnixNano())
		r.freezeAt = req.Time
		if _, _, err := r.clientFor(req.Client).Get(req.Path); err != nil {
			r.warmupErrors++
		}
	})
	if r.srv != nil {
		r.srv.Engine().Refresh(r.freezeAt)
		if r.cfg.Overload {
			ov := r.srv.OverloadStats()
			r.ovFreeze = &ov
		}
	}
	r.frozen = r.clientTotals()
	return skips
}

// clientTotals sums every client's counters.
func (r *run) clientTotals() httpspec.ClientStats {
	var total httpspec.ClientStats
	for _, id := range r.order {
		total = total.Add(r.clients[id].c.Stats())
	}
	return total
}

// aggregate folds the worker ledgers and the clients' measurement-phase
// counters into the arm's raw state and the Result computed from it.
func (r *run) aggregate(elapsed time.Duration) (*Result, PartialArm) {
	hist := NewHist()
	arm := PartialArm{
		Stats:        r.clientTotals().Sub(r.frozen),
		WarmupErrors: r.warmupErrors,
		ElapsedNS:    int64(elapsed),
	}
	for _, wr := range r.results {
		hist.Merge(wr.hist)
		arm.Errors += wr.errors
		arm.MissDurNS += int64(wr.missDurSum)
		arm.MissCount += wr.missCount
	}
	arm.Hist = hist.Export()
	return arm.result(hist), arm
}

// serverSections attaches the in-process server's own ledgers to the
// result: checkpoint counters, overload stats, estimator footprint, guard
// decisions — each only when the run configured that subsystem.
func (r *run) serverSections(res *Result) {
	cfg := r.cfg
	if r.ckstore != nil {
		c := r.ckstore.Counters()
		res.Checkpoint = &c
	}
	if r.srv == nil {
		return
	}
	if cfg.Overload {
		ov := r.srv.OverloadStats()
		res.Overload = &ov
	}
	if cfg.MaxRows > 0 || cfg.RowTopK > 0 {
		res.Estimator = r.srv.Engine().Stats().Estimator
	}
	if r.guard != nil {
		gs := r.guard.StatsSnapshot()
		es := r.srv.Engine().Stats()
		res.Estguard = &EstguardInfo{
			QuarantinedClients:  gs.QuarantinedClients,
			QuarantinedRequests: gs.QuarantinedRequests,
			Promotions:          gs.Promotions,
			Demotions:           gs.Demotions,
			Refreshes:           es.Refreshes,
			EarlyRefreshes:      es.EarlyRefreshes,
			SnapshotsRejected:   es.SnapshotsRejected,
			ForcedAccepts:       gs.ForcedAccepts,
			DriftScore:          gs.DriftScore,
		}
	}
}

// RunReport executes cfg as the report's speculative arm and, when
// withBaseline and cfg.Speculate, the identical workload once more with
// speculation off — the paper's baseline — then assembles the BENCH
// report with the arm-relative timing comparison.
func RunReport(cfg Config, withBaseline bool) (*Report, error) {
	specRes, winfo, cinfo, err := runBest(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Schema: ReportSchema, Config: cinfo, Workload: *winfo, Spec: specRes}
	if withBaseline && cfg.Speculate {
		b := cfg
		b.Speculate = false
		rep.Baseline, _, _, err = runBest(b)
		if err != nil {
			return nil, err
		}
		rep.Relative = relative(rep.Spec, rep.Baseline)
	}
	return rep, nil
}

// runBest executes one arm cfg.Reps times, keeping the first rep's
// result with the fastest rep's Timing substituted in. Counts are
// byte-identical across fault-free reps, so this sharpens only the
// wall-clock section.
func runBest(cfg Config) (*Result, *WorkloadInfo, ConfigInfo, error) {
	res, winfo, cinfo, err := Run(cfg)
	if err != nil {
		return nil, nil, cinfo, err
	}
	for i := 1; i < cfg.Reps; i++ {
		again, _, _, err := Run(cfg)
		if err != nil {
			return nil, nil, cinfo, err
		}
		if t := again.Timing; t != nil &&
			(res.Timing == nil || t.Throughput > res.Timing.Throughput) {
			res.Timing = t
		}
	}
	return res, winfo, cinfo, nil
}

// workerOf assigns a client to a worker by stable hash, so the partition
// does not depend on trace position or map order.
func workerOf(id trace.ClientID, workers int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(workers))
}
