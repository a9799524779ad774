package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"specweb/internal/checkpoint"
	"specweb/internal/httpspec"
)

// The kill/restart chaos harness: one arm's measurement phase is split
// by a simulated server crash — the server object is dropped on the
// floor with no shutdown, exactly what SIGKILL leaves behind — and a
// fresh stack is built in its place. What the fresh stack knows depends
// on the mode: a warm restart recovers the checkpointed estimate, a
// cold restart starts from nothing. Per-phase interception counters
// quantify what the crash cost.
//
// Everything stays on the virtual clock frozen at the warmup boundary,
// so no refresh fires mid-measurement and each arm's counters are
// byte-deterministic: the warm arm restores the exact frozen model an
// uninterrupted run would have kept using.

// Restart modes.
const (
	// RestartNone splits the measurement for per-phase accounting but
	// never crashes — the uninterrupted control arm.
	RestartNone = "none"
	// RestartWarm crashes, then recovers from the newest readable
	// checkpoint frame.
	RestartWarm = "warm"
	// RestartCold crashes and deliberately skips recovery.
	RestartCold = "cold"
)

// RestartConfig parameterizes the crash.
type RestartConfig struct {
	// Mode is RestartNone, RestartWarm or RestartCold.
	Mode string `json:"mode"`
	// CrashFraction is the share of the measurement phase served before
	// the crash (default 0.5).
	CrashFraction float64 `json:"crash_fraction"`
	// CorruptNewest flips a byte in the newest checkpoint frame after
	// the crash, so warm recovery must fall back to the last-good frame.
	CorruptNewest bool `json:"corrupt_newest,omitempty"`
	// StateDir is the checkpoint directory spanning the crash; empty
	// means a private temp dir removed when the run ends.
	StateDir string `json:"-"`
}

// validate normalizes and rejects configurations the harness cannot
// keep deterministic.
func (rc *RestartConfig) validate(cfg Config) (*RestartConfig, error) {
	out := *rc
	switch out.Mode {
	case RestartNone, RestartWarm, RestartCold:
	default:
		return nil, fmt.Errorf("loadgen: restart mode %q (want %s, %s or %s)",
			out.Mode, RestartNone, RestartWarm, RestartCold)
	}
	if out.CrashFraction <= 0 || out.CrashFraction >= 1 {
		out.CrashFraction = 0.5
	}
	if out.CorruptNewest && out.Mode != RestartWarm {
		return nil, fmt.Errorf("loadgen: corrupt_newest requires warm mode")
	}
	if cfg.BaseURL != "" {
		return nil, fmt.Errorf("loadgen: restart harness needs the in-process stack")
	}
	if cfg.OpenLoop && cfg.Rate > 0 {
		return nil, fmt.Errorf("loadgen: restart harness is closed-loop only")
	}
	return &out, nil
}

// RestartInfo is the per-phase ledger of one restart arm.
type RestartInfo struct {
	Mode          string      `json:"mode"`
	CrashFraction float64     `json:"crash_fraction"`
	CrashIndex    int         `json:"crash_index"` // measurement requests before the crash
	Phase1        PhaseCounts `json:"phase1"`
	Phase2        PhaseCounts `json:"phase2"`
}

// PhaseCounts are one phase's client-side totals. Interception is
// SpecHits/Requests — the fraction of demand served from speculative
// deliveries, the recovery metric the harness compares across arms.
type PhaseCounts struct {
	Requests     int64   `json:"requests"`
	CacheHits    int64   `json:"cache_hits"`
	SpecHits     int64   `json:"spec_hits"`
	Errors       int64   `json:"errors"`
	Interception float64 `json:"interception"`
}

// switchHandler is the crash swap point: clients keep one transport for
// the whole run while the handler behind it is atomically replaced.
type switchHandler struct {
	h atomic.Pointer[http.Handler]
}

func newSwitchHandler(h http.Handler) *switchHandler {
	s := &switchHandler{}
	s.set(h)
	return s
}

func (s *switchHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// runRestart drives the split measurement: every lane up to the crash
// cut, the crash/recovery barrier, then every lane to its end. All
// phase-1 workers have joined before the swap, so no request is ever in
// flight across the crash — demand traffic is never dropped, which the
// invariant checks then assert as zero phase errors.
func (r *run) runRestart(cut *cutter, lanes []*lane) (*RestartInfo, error) {
	rst := r.cfg.Restart
	measured := r.n - r.warmN
	crashIdx := int(rst.CrashFraction * float64(measured))

	r.closedLoop(lanes, cut.advance(r.warmN+crashIdx, nil))
	atCrash, errs1 := r.clientTotals(), r.errors()
	if rst.Mode != RestartNone {
		if err := r.crash(); err != nil {
			return nil, err
		}
	}
	r.closedLoop(lanes, nil)

	return &RestartInfo{
		Mode:          rst.Mode,
		CrashFraction: rst.CrashFraction,
		CrashIndex:    crashIdx,
		Phase1:        phaseCounts(atCrash.Sub(r.frozen), errs1),
		Phase2:        phaseCounts(r.clientTotals().Sub(atCrash), r.errors()-errs1),
	}, nil
}

// crash abandons the running server — not shut down: a real SIGKILL
// leaves exactly this, no drain, no final checkpoint — and swaps in a
// fresh stack that knows what the restart mode lets it recover.
func (r *run) crash() error {
	rst := r.cfg.Restart
	if rst.CorruptNewest {
		// A second frame of the same frozen state, so corrupting the
		// newest still leaves a last-good frame to fall back to.
		if err := r.srv.Engine().CheckpointNow(r.freezeAt); err != nil {
			return err
		}
		if err := corruptNewestFrame(rst.StateDir); err != nil {
			return err
		}
	}
	srvB, err := r.newServer()
	if err != nil {
		return err
	}
	switch rst.Mode {
	case RestartWarm:
		snap, _, err := r.ckstore.Load()
		if err != nil {
			return err
		}
		if snap != nil {
			if err := srvB.Engine().WarmStart(snap, r.freezeAt); err != nil {
				r.ckstore.NoteColdStart()
			}
		}
	case RestartCold:
		r.ckstore.NoteColdStart() // recovery deliberately skipped
	}
	r.swap.set(srvB)
	return nil
}

// errors sums the workers' error counts so far.
func (r *run) errors() int64 {
	var n int64
	for _, wr := range r.results {
		n += wr.errors
	}
	return n
}

// phaseCounts renders one phase's client-counter delta.
func phaseCounts(d httpspec.ClientStats, errors int64) PhaseCounts {
	pc := PhaseCounts{Requests: d.Fetches, CacheHits: d.CacheHits, SpecHits: d.SpecHits, Errors: errors}
	if pc.Requests > 0 {
		pc.Interception = float64(pc.SpecHits) / float64(pc.Requests)
	}
	return pc
}

// corruptNewestFrame flips one payload byte in the newest checkpoint
// frame, simulating torn or rotted storage.
func corruptNewestFrame(dir string) error {
	frames, err := filepath.Glob(filepath.Join(dir, "ckpt-*.spw"))
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		return fmt.Errorf("loadgen: no checkpoint frames in %s to corrupt", dir)
	}
	sort.Strings(frames)
	path := frames[len(frames)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x40
	return os.WriteFile(path, data, 0o644)
}

// RestartSchema versions the BENCH-restart.json layout.
const RestartSchema = "specbench-restart/1"

// RestartReport is the BENCH-restart.json document: the same workload
// driven through four arms — uninterrupted control, warm restart, cold
// restart, and warm restart forced through the corrupt-frame fallback
// ladder. Outside the per-arm Timing sections everything is
// deterministic for a given seed.
type RestartReport struct {
	Schema          string       `json:"schema"`
	Config          ConfigInfo   `json:"config"`
	Workload        WorkloadInfo `json:"workload"`
	Uninterrupted   *Result      `json:"uninterrupted"`
	Warm            *Result      `json:"warm"`
	Cold            *Result      `json:"cold"`
	CorruptFallback *Result      `json:"corrupt_fallback"`
}

// JSON marshals the full report, indented.
func (r *RestartReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunRestartSuite executes the four restart arms over the identical
// workload and assembles the report. A CrashFraction preset on
// cfg.Restart applies to every arm; the mode there is ignored.
func RunRestartSuite(cfg Config) (*RestartReport, error) {
	var frac float64
	if cfg.Restart != nil {
		frac = cfg.Restart.CrashFraction
	}
	arm := func(rc RestartConfig) (*Result, *WorkloadInfo, ConfigInfo, error) {
		c := cfg
		rc.CrashFraction = frac
		c.Restart = &rc
		return Run(c)
	}
	un, winfo, cinfo, err := arm(RestartConfig{Mode: RestartNone})
	if err != nil {
		return nil, err
	}
	warm, _, _, err := arm(RestartConfig{Mode: RestartWarm})
	if err != nil {
		return nil, err
	}
	cold, _, _, err := arm(RestartConfig{Mode: RestartCold})
	if err != nil {
		return nil, err
	}
	corrupt, _, _, err := arm(RestartConfig{Mode: RestartWarm, CorruptNewest: true})
	if err != nil {
		return nil, err
	}
	cinfo.Restart = nil // per-arm configs differ only in the restart block
	return &RestartReport{
		Schema:          RestartSchema,
		Config:          cinfo,
		Workload:        *winfo,
		Uninterrupted:   un,
		Warm:            warm,
		Cold:            cold,
		CorruptFallback: corrupt,
	}, nil
}

// restartRecoverySlack is how far (absolute interception) a recovered
// arm's post-crash phase may trail the uninterrupted control.
const restartRecoverySlack = 0.05

// CheckRestartInvariants enforces the durability acceptance criteria on
// a suite report, returning one message per violation:
//
//   - no arm drops demand traffic (zero errors in both phases);
//   - warm recovery restores interception to within 5% (absolute) of
//     the uninterrupted run, immediately — phase 2 starts at the crash;
//   - warm strictly beats cold after the crash;
//   - the corrupt arm recovered warm through the last-good frame, with
//     the corruption observed and skipped.
func CheckRestartInvariants(rep *RestartReport) []string {
	var v []string
	fail := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	arms := []struct {
		name string
		res  *Result
	}{
		{"uninterrupted", rep.Uninterrupted},
		{"warm", rep.Warm},
		{"cold", rep.Cold},
		{"corrupt_fallback", rep.CorruptFallback},
	}
	for _, a := range arms {
		if a.res == nil || a.res.Restart == nil {
			fail("%s: arm or restart section missing", a.name)
			return v
		}
		ri := a.res.Restart
		if ri.Phase1.Errors != 0 || ri.Phase2.Errors != 0 {
			fail("%s: dropped demand requests (phase1 %d, phase2 %d errors)",
				a.name, ri.Phase1.Errors, ri.Phase2.Errors)
		}
		if ri.Phase1.Requests == 0 || ri.Phase2.Requests == 0 {
			fail("%s: empty phase (%d/%d requests)", a.name,
				ri.Phase1.Requests, ri.Phase2.Requests)
		}
	}
	if len(v) > 0 {
		return v
	}

	un2 := rep.Uninterrupted.Restart.Phase2.Interception
	warm2 := rep.Warm.Restart.Phase2.Interception
	cold2 := rep.Cold.Restart.Phase2.Interception
	corr2 := rep.CorruptFallback.Restart.Phase2.Interception
	if warm2 < un2-restartRecoverySlack {
		fail("warm recovery interception %.4f trails uninterrupted %.4f by more than %.2f",
			warm2, un2, restartRecoverySlack)
	}
	if corr2 < un2-restartRecoverySlack {
		fail("corrupt-fallback interception %.4f trails uninterrupted %.4f by more than %.2f",
			corr2, un2, restartRecoverySlack)
	}
	if warm2 <= cold2 {
		fail("warm restart interception %.4f does not beat cold %.4f", warm2, cold2)
	}

	ck := func(name string, res *Result) *checkpoint.Counters {
		if res.Checkpoint == nil {
			fail("%s: checkpoint counters missing", name)
			return nil
		}
		return res.Checkpoint
	}
	if c := ck("warm", rep.Warm); c != nil {
		if c.Loaded != 1 || c.CorruptSkipped != 0 || c.ColdStarts != 0 {
			fail("warm arm counters: %+v (want exactly one clean load)", *c)
		}
	}
	if c := ck("cold", rep.Cold); c != nil {
		if c.Loaded != 0 || c.ColdStarts != 1 {
			fail("cold arm counters: %+v (want no load, one cold start)", *c)
		}
	}
	if c := ck("corrupt_fallback", rep.CorruptFallback); c != nil {
		if c.Loaded != 1 || c.CorruptSkipped < 1 || c.ColdStarts != 0 {
			fail("corrupt arm counters: %+v (want corrupt skipped, then last-good loaded)", *c)
		}
	}
	if rep.Uninterrupted.Checkpoint != nil {
		fail("uninterrupted arm must not carry checkpoint counters")
	}
	return v
}

// CompareRestart gates a current suite report against a committed
// baseline: deterministic per-phase counts within tolerancePct,
// checkpoint counters exactly equal.
func CompareRestart(baseline, current *RestartReport, tolerancePct float64) []string {
	g := newGate(tolerancePct, baseline.Schema, current.Schema)
	fail, drift := g.fail, g.drift
	arm := func(name string, base, cur *Result) {
		if base == nil || cur == nil || base.Restart == nil || cur.Restart == nil {
			fail("%s: arm missing in one report", name)
			return
		}
		for _, ph := range []struct {
			tag  string
			b, c PhaseCounts
		}{
			{"phase1", base.Restart.Phase1, cur.Restart.Phase1},
			{"phase2", base.Restart.Phase2, cur.Restart.Phase2},
		} {
			drift(name+"."+ph.tag+".requests", float64(ph.b.Requests), float64(ph.c.Requests))
			drift(name+"."+ph.tag+".spec_hits", float64(ph.b.SpecHits), float64(ph.c.SpecHits))
			drift(name+"."+ph.tag+".interception", ph.b.Interception, ph.c.Interception)
			if ph.b.Errors == 0 && ph.c.Errors > 0 {
				fail("%s.%s.errors: baseline had none, current has %d", name, ph.tag, ph.c.Errors)
			}
		}
		if b, c := base.Checkpoint, cur.Checkpoint; (b == nil) != (c == nil) {
			fail("%s.checkpoint: present in only one report", name)
		} else if b != nil && *b != *c {
			fail("%s.checkpoint counters changed: %+v -> %+v", name, *b, *c)
		}
	}
	arm("uninterrupted", baseline.Uninterrupted, current.Uninterrupted)
	arm("warm", baseline.Warm, current.Warm)
	arm("cold", baseline.Cold, current.Cold)
	arm("corrupt_fallback", baseline.CorruptFallback, current.CorruptFallback)
	return g.v
}
