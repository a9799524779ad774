//go:build linux

package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// Trace levels of one run.
const (
	traceOff  = 0 // end-to-end metrics only, baseline arm included
	traceOn   = 1 // per-layer metrics only: traced pass and layer replay
	traceBoth = 2 // both, for reference runs
)

// A run sets the stack up at least minSetups times, and again until
// setupSpend has gone into set-ups, and reports the median as setup_s;
// the last set-up is the one measured. The cheap set-up of learn-online
// (no warm-up) is over in 50 ms and needs the repeats to read steadily.
// The warm-ups of the frozen workloads are also where refresh_p50_ms comes
// from: with the three of 1.5 s push-media once made, one run in twelve
// read a third above the others.
const (
	minSetups  = 5
	setupSpend = 3 * time.Second
)

// heapAtPass is the measured pass of the speculative arm after which
// heap_live_mb is read.
const heapAtPass = 2

// lateLimitMS is the generator lateness above which an open-loop run does
// not count.
const lateLimitMS = 1.0

type options struct {
	seed     int64
	seconds  float64
	trace    int
	tiny     bool   // shrink the workload to the 60-page test profile
	traceOut string // span dump of the traced pass, "" for none
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run found.
type report struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Seed      int64  `json:"seed"`
	Transport string `json:"transport"`
	Loop      string `json:"loop"`
	Workers   int    `json:"workers"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	Passes          int     `json:"passes"`
	InputDigest     string  `json:"input_digest"` // hash of the generated request sequence
	RequestsPerPass int64   `json:"requests_per_pass"`
	Counts          *counts `json:"counts,omitempty"`
	BaselineCounts  *counts `json:"baseline_counts,omitempty"`

	EndToEnd map[string]float64    `json:"end_to_end,omitempty"`
	PerLayer map[string]float64    `json:"per_layer,omitempty"`
	Ledger   map[string]kindTotals `json:"ledger,omitempty"`
	Checks   []check               `json:"checks"`
	Machine  machine               `json:"machine"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runPass replays the measured trace once, the way the workload drives it.
func runPass(w workload, d *driver) segment {
	from, to := d.wd.warmN, d.wd.tr.Len()
	switch {
	case w.online:
		seg, _ := d.sequentialSegment(from, to)
		return seg
	case w.rate > 0:
		return d.openSegment(from, to, w.rate)
	default:
		return d.closedSegment(from, to)
	}
}

// arm is one arm's measured phase: one segment and one set of counts per
// pass so far, over a stack that frozen workloads keep (purging sessions
// between passes) and the online workload replaces before every pass.
type arm struct {
	w    workload
	wd   *world
	spec bool
	st   *stack

	segs      []segment
	passes    []counts
	refreshes int64 // engine refreshes inside the last pass
	heapAt    int   // read the live heap after this many passes; 0 = never
	heapMB    float64

	// The baseline arm's own warm-up; the speculative arm's is the set-up.
	warmReq, warmFailed int64
}

// renew gives an online workload the fresh stack every epoch starts on.
func (a *arm) renew() error {
	if !a.w.online {
		return nil
	}
	if err := a.st.close(); err != nil {
		return err
	}
	fresh, err := buildStack(a.w, a.wd, a.spec)
	if err != nil {
		return err
	}
	a.st = fresh
	return nil
}

// pass replays the measured trace once.
func (a *arm) pass() error {
	if err := a.renew(); err != nil {
		return err
	}
	before := a.st.counts()
	refreshes := a.st.srv.Engine().Stats().Refreshes
	a.segs = append(a.segs, runPass(a.w, &driver{wd: a.wd, st: a.st}))
	if len(a.segs) == a.heapAt {
		a.heapMB = liveHeapMB()
	}
	a.passes = append(a.passes, a.st.counts().minus(before))
	a.refreshes = a.st.srv.Engine().Stats().Refreshes - refreshes
	a.st.purgeSessions()
	return nil
}

// tally adds the arm's requests to the run's totals.
func (a *arm) tally(attempted, failed *int64) {
	*attempted += a.warmReq
	*failed += a.warmFailed
	for i := range a.segs {
		*attempted += a.segs[i].req
		*failed += a.segs[i].failed
	}
}

// traced is what the traced pass produced.
type traced struct {
	seg    segment
	spans  []span
	ledger [numKinds]kindTotals
	counts *probeCounts
	reqs   []servedReq
	drops  int64
}

// tracePass runs one more pass with the wrappers recording, into a span
// buffer and counters of its own: what it returns covers this pass alone.
func tracePass(a *arm) (traced, error) {
	if err := a.renew(); err != nil {
		return traced{}, err
	}
	p := a.st.probe
	p.buf = newSpanBuf()
	p.n = &probeCounts{}
	serves := a.passes[0].Serves
	p.captured = make([]servedReq, serves+serves/8+64)
	p.capN.Store(0)
	p.on.Store(true)
	seg := runPass(a.w, &driver{wd: a.wd, st: a.st})
	p.on.Store(false)
	for p.inflight.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	a.st.purgeSessions()
	spans := p.buf.recorded()
	adoptContent(spans)
	return traced{seg: seg, spans: spans, ledger: ledgerOf(spans), counts: p.n, reqs: p.capturedReqs(), drops: p.buf.dropped.Load()}, nil
}

// setUps is what the repeated set-ups of one run leave behind.
type setUps struct {
	wd        *world
	st        *stack    // the last set-up's stack, its model trained; nil for an online workload
	seconds   []float64 // how long each set-up took
	refreshNS [][]int64 // per set-up, latencies of the warm-up requests that crossed a refresh, in order
	attempted int64
	failed    int64
}

// setUp generates the input, builds the stack and warms it, several times
// over unless once is set; the last set-up is kept.
func setUp(w workload, seed int64, once bool) (*setUps, error) {
	su := &setUps{}
	for began := time.Now(); len(su.seconds) < minSetups || time.Since(began) < setupSpend; {
		if su.st != nil {
			if err := su.st.close(); err != nil {
				return nil, err
			}
			su.wd, su.st = nil, nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if su.wd, err = buildWorld(w, seed); err != nil {
			return nil, err
		}
		if su.st, err = buildStack(w, su.wd, true); err != nil {
			return nil, err
		}
		warmRefresh, warmFailed := (&driver{wd: su.wd, st: su.st}).warm()
		su.seconds = append(su.seconds, time.Since(start).Seconds())
		su.refreshNS = append(su.refreshNS, warmRefresh)
		su.attempted += int64(su.wd.warmN)
		su.failed += warmFailed
		if once {
			break
		}
	}
	if w.online { // every epoch builds its own
		if err := su.st.close(); err != nil {
			return nil, err
		}
		su.st = nil
	}
	return su, nil
}

// measure stands up the baseline arm, when there is one (the same stack,
// clients that do not speculate), and alternates the two arms pass by pass
// until budget is spent and the speculative arm has its workload's
// minPasses: both arms see the same stretch of the machine's time, and
// every pass runs beside the same live heap.
func measure(spec, base *arm, budget time.Duration) error {
	w := spec.w
	start := time.Now()
	if base != nil && !w.online {
		var err error
		if base.st, err = buildStack(w, base.wd, false); err != nil {
			return err
		}
		_, base.warmFailed = (&driver{wd: base.wd, st: base.st}).warm()
		base.warmReq = int64(base.wd.warmN)
	}
	for {
		if base != nil {
			if err := base.pass(); err != nil {
				return err
			}
		}
		if err := spec.pass(); err != nil {
			return err
		}
		if len(spec.segs) >= w.minPasses && time.Since(start) >= budget {
			return nil
		}
	}
}

func runWorkload(w workload, o options) (*report, error) {
	if o.tiny {
		w = w.tiny()
	}
	rep := &report{
		Workload: w.name, Why: w.why, Seed: o.seed, Workers: workers,
		Transport: "in-process", Loop: "closed", Machine: thisMachine(),
	}
	if w.wire {
		rep.Transport = "loopback TCP"
	}
	if w.rate > 0 {
		rep.Loop = fmt.Sprintf("open at %g req/s", w.rate)
	}
	if w.online {
		rep.Workers = 1
	}

	su, err := setUp(w, o.seed, o.tiny || o.trace == traceOn)
	if err != nil {
		return nil, err
	}
	wd := su.wd
	attempted, failed := su.attempted, su.failed
	rep.RequestsPerPass = int64(wd.tr.Len() - wd.warmN)
	rep.InputDigest = fmt.Sprintf("%016x", wd.digest)

	// A traced run measures half as long and has no baseline arm.
	budget := time.Duration(o.seconds * float64(time.Second))
	ledBefore, srvBefore := su.st.clientTotals(), su.st.serverStats()
	spec := &arm{w: w, wd: wd, spec: true, st: su.st, heapAt: min(heapAtPass, w.minPasses)}
	var base *arm
	if o.trace == traceOn {
		budget /= 2
	} else {
		base = &arm{w: w, wd: wd}
	}
	defer func() { // the success path has closed both, and checked
		_ = spec.st.close()
		if base != nil {
			_ = base.st.close()
		}
	}()
	if err := measure(spec, base, budget); err != nil {
		return nil, err
	}
	phaseReq := -attempted
	spec.tally(&attempted, &failed)
	phaseReq += attempted
	rep.Passes = len(spec.segs)
	rep.Counts = &spec.passes[0]
	identical := true
	for i, p := range spec.passes {
		identical = identical && p == spec.passes[0] && slices.Equal(spec.segs[i].cached, spec.segs[0].cached)
	}
	rep.check("passes_identical", identical, "per-pass counts, or which requests the client cache served, differ across %d passes: %+v", len(spec.passes), spec.passes)
	// Refreshes happen in the epochs of the online workload and in the
	// warm-ups of the frozen ones.
	refreshNS := su.refreshNS
	for i := range spec.segs {
		refreshNS = append(refreshNS, spec.segs[i].refresh)
	}

	if base != nil {
		if err := base.st.close(); err != nil {
			return nil, err
		}
		base.tally(&attempted, &failed)
		rep.BaselineCounts = &base.passes[0]
		sc, bc := rep.Counts, rep.BaselineCounts
		rep.check("arms_demand_equal", sc.DemandBytes == bc.DemandBytes,
			"speculative arm demanded %d bytes, baseline %d", sc.DemandBytes, bc.DemandBytes)
		rep.EndToEnd = map[string]float64{
			"setup_s":            median(su.seconds),
			"replay_rps":         float64(rep.RequestsPerPass) / overSegments(spec.segs, func(s *segment) float64 { return seconds(s.wallNS) }),
			"demand_p50_ms":      overSegments(spec.segs, func(s *segment) float64 { return float64(quantile(s.demand, 0.50)) / 1e6 }),
			"demand_p90_ms":      overSegments(spec.segs, func(s *segment) float64 { return float64(quantile(s.demand, 0.90)) / 1e6 }),
			"cpu_us_per_req":     overSegments(spec.segs, cpuPerReq),
			"heap_live_mb":       spec.heapMB,
			"bandwidth_ratio":    ratio(float64(sc.BytesIn), float64(bc.BytesIn)),
			"server_load_ratio":  ratio(float64(sc.Serves), float64(bc.Serves)),
			"byte_miss_ratio":    ratio(float64(sc.MissBytes), float64(bc.MissBytes)),
			"service_time_ratio": ratio(overSegments(spec.segs, meanServiceNS), overSegments(base.segs, meanServiceNS)),
			"refresh_p50_ms":     refreshP50MS(refreshNS),
		}
	}

	// The traced pass, then the ledger drain.
	var tr traced
	if o.trace != traceOff {
		if tr, err = tracePass(spec); err != nil {
			return nil, err
		}
		attempted += tr.seg.req
		failed += tr.seg.failed
		phaseReq += tr.seg.req
	}
	for _, cl := range spec.st.clients {
		cl.c.ResolveOutstanding()
	}
	led := spec.st.clientLed.Report(0)
	rep.check("attribution_drained", led.Outstanding == 0, "outstanding = %d after ResolveOutstanding", led.Outstanding)

	rep.Attempted, rep.Failed = attempted, failed
	if o.trace != traceOff {
		if w.online { // a fresh stack per epoch: its counters cover exactly the last one
			ledBefore, srvBefore, phaseReq = ledgerTotals{}, serverTotals{}, int64(wd.tr.Len())
		}
		if err := perLayerMetrics(rep, o, spec, tr, layerCounts{
			generateS: wd.generateS,
			refreshNS: sortedMerge(refreshNS...),
			srv:       spec.st.serverStats().minus(srvBefore),
			led:       totalsOf(led).minus(ledBefore),
			req:       phaseReq,
		}); err != nil {
			return nil, err
		}
	}
	if err := spec.st.close(); err != nil {
		return nil, err
	}

	late := overSegments(spec.segs, latePercentileMS)
	rep.check("generator_on_time", late <= lateLimitMS, "harness.late_p99_ms is %.3f, above %.1f", late, lateLimitMS)
	rep.check("nothing_failed", failed == 0, "%d of %d requests failed", failed, attempted)
	rep.Correct = true
	for _, c := range rep.Checks {
		rep.Correct = rep.Correct && c.OK
	}
	return rep, nil
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// refreshP50MS is the median over the refreshes of a set-up or epoch. The
// clock is virtual, so the k-th refresh is the same work in every set-up
// or epoch of a run and more work than the one before (the model grows),
// and each is read like every timing, at the calm quartile over its repeats. groups holds, per set-up or epoch, the latencies of the
// requests that crossed a refresh, in order.
func refreshP50MS(groups [][]int64) float64 {
	n := 0 // refreshes in a set-up or epoch
	for _, g := range groups {
		if n == 0 || (len(g) > 0 && len(g) < n) {
			n = len(g)
		}
	}
	each := make([]float64, n)
	for k := range each {
		var repeats []float64
		for _, g := range groups {
			if len(g) > 0 {
				repeats = append(repeats, float64(g[k])/1e6)
			}
		}
		each[k] = fractile(repeats, calmQuartile)
	}
	return median(each)
}

// latePercentileMS is the 99th percentile of a segment's generator lateness.
func latePercentileMS(s *segment) float64 { return float64(quantile(s.late, 0.99)) / 1e6 }

func cpuPerReq(s *segment) float64 { return float64(s.cpuNS) / 1e3 / float64(s.req) }

// meanServiceNS is the mean time inside Client.Get over all requests of a
// segment, client cache hits included.
func meanServiceNS(s *segment) float64 { return float64(s.serviceNS) / float64(s.req) }

// calmQuartile is the quantile over a run's passes that the run reports of
// every timing. The machine's disturbances only ever add time, and on a
// shared host they last from seconds to minutes: the median over passes
// moved with them by a fifth from run to run, the first quartile by half
// of that (README, "What steadies each metric"). It is not a best-of: a
// quarter of the passes have to read as low or lower.
const calmQuartile = 0.25

// overSegments is the calm quartile over passes of f, a cost that is
// better lower.
func overSegments(segs []segment, f func(*segment) float64) float64 {
	vals := make([]float64, len(segs))
	for i := range segs {
		vals[i] = f(&segs[i])
	}
	return fractile(vals, calmQuartile)
}

// ledgerTotals is the part of the client-side attribution ledger the
// per-layer metrics diff over the measured phase.
type ledgerTotals struct{ deliveries, deliveredBytes, consumedBytes int64 }

func (a ledgerTotals) minus(b ledgerTotals) ledgerTotals {
	return ledgerTotals{a.deliveries - b.deliveries, a.deliveredBytes - b.deliveredBytes, a.consumedBytes - b.consumedBytes}
}

func (s *stack) clientTotals() ledgerTotals {
	if s == nil {
		return ledgerTotals{}
	}
	return totalsOf(s.clientLed.Report(0))
}

// serverTotals is the part of Server.Stats the per-layer metrics diff.
type serverTotals struct{ hints, pushed, bundles, serves int64 }

func (a serverTotals) minus(b serverTotals) serverTotals {
	return serverTotals{a.hints - b.hints, a.pushed - b.pushed, a.bundles - b.bundles, a.serves - b.serves}
}

func (s *stack) serverStats() serverTotals {
	if s == nil {
		return serverTotals{}
	}
	st := s.srv.Stats()
	return serverTotals{st.HintsSent, st.DocsPushed, st.BundlesBuilt, s.served.serves.Load()}
}
