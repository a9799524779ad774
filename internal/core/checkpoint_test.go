package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"specweb/internal/checkpoint"
	"specweb/internal/estguard"
	"specweb/internal/obs"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

func newCheckpointStore(t *testing.T, fp uint64) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.NewStore(checkpoint.StoreConfig{
		Dir: t.TempDir(), Fingerprint: fp, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEngineCheckpointsOnAcceptedFreeze: every accepted refresh persists a
// frame; an engine without a store is unaffected.
func TestEngineCheckpointsOnAcceptedFreeze(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.Metrics = obs.NewRegistry()
	st := newCheckpointStore(t, cfg.StateFingerprint())
	cfg.Checkpoint = st
	e := newTestEngine(t, cfg)

	feedPattern(e, 10)
	if c := st.Counters(); c.Saved != 1 || c.SaveErrors != 0 {
		t.Fatalf("after one refresh: %+v", c)
	}
	e.Refresh(t0.Add(48 * time.Hour))
	if c := st.Counters(); c.Saved != 2 {
		t.Fatalf("after two refreshes: %+v", c)
	}
	stats := e.Stats()
	if stats.Checkpoint == nil || stats.Checkpoint.Saved != 2 {
		t.Fatalf("Stats must carry checkpoint counters: %+v", stats.Checkpoint)
	}
}

func TestEngineStatsOmitCheckpointWithoutStore(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.Metrics = obs.NewRegistry()
	e := newTestEngine(t, cfg)
	if e.Stats().Checkpoint != nil {
		t.Fatal("Stats.Checkpoint must stay nil without a store")
	}
}

// TestEngineWarmStartRoundTrip: checkpoint an engine, warm-start a fresh
// one from the decoded frame, and require identical decisions, identical
// stats, and a byte-identical re-export — the codec determinism
// acceptance criterion at the engine level.
func TestEngineWarmStartRoundTrip(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.Metrics = obs.NewRegistry()
	stA := newCheckpointStore(t, cfg.StateFingerprint())
	cfgA := cfg
	cfgA.Checkpoint = stA
	a := newTestEngine(t, cfgA)
	feedPattern(a, 10, 3)
	if err := a.SetTp(0.33); err != nil { // runtime knob must survive the trip
		t.Fatal(err)
	}

	// Restore at the instant the persisted matrix was estimated: WarmStart
	// rearms the refresh schedule at the restore time, so exports can only
	// be byte-identical when the two instants coincide (the restart
	// harness's virtual clock guarantees exactly this).
	at := a.Stats().LastUpdate
	if err := a.CheckpointNow(at); err != nil {
		t.Fatal(err)
	}
	snap, _, err := stA.Load()
	if err != nil || snap == nil {
		t.Fatalf("Load: %v %v", snap, err)
	}

	cfgB := cfg
	cfgB.Metrics = obs.NewRegistry()
	b := newTestEngine(t, cfgB)
	if err := b.WarmStart(snap, at); err != nil {
		t.Fatalf("WarmStart: %v", err)
	}

	sa, sb := a.Stats(), b.Stats()
	if sa.Pairs != sb.Pairs || sa.Docs != sb.Docs || sa.Recorded != sb.Recorded {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if got, want := b.Tp(), 0.33; got != want {
		t.Fatalf("Tp not restored: %v", got)
	}
	if pa, pb := speculate(a, 1, nil), speculate(b, 1, nil); !reflect.DeepEqual(pa, pb) {
		t.Fatalf("decisions diverged: %v vs %v", pa, pb)
	}

	// Byte determinism: the warm-started engine's own export, encoded,
	// must reproduce the original frame's bytes exactly.
	frameA := encodeExport(t, a, at)
	frameB := encodeExport(t, b, at)
	if !bytes.Equal(frameA, frameB) {
		t.Fatal("re-export after warm start is not byte-identical")
	}
}

func encodeExport(t *testing.T, e *Engine, at time.Time) []byte {
	t.Helper()
	e.mu.Lock()
	cs := e.exportCheckpointLocked(at)
	e.mu.Unlock()
	cs.Meta.Fingerprint = 7 // normalize: the store stamps this on Save
	b, err := checkpoint.Encode(cs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEngineCheckpointWorkerCountIndependence: the same logical traffic
// recorded by 1 goroutine and by 8 concurrent goroutines must freeze —
// and therefore checkpoint — to byte-identical frames.
func TestEngineCheckpointWorkerCountIndependence(t *testing.T) {
	run := func(workers int) []byte {
		cfg := DefaultEngineConfig()
		cfg.Metrics = obs.NewRegistry()
		e := newTestEngine(t, cfg)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for c := w; c < 64; c += workers {
					client := trace.ClientID(fmt.Sprintf("client-%02d", c))
					at := t0.Add(time.Duration(c) * time.Minute)
					e.Record(client, 1, at)
					e.Record(client, 2, at.Add(time.Second))
					e.Record(client, webgraph.DocID(3+c%2), at.Add(2*time.Second))
				}
			}(w)
		}
		wg.Wait()
		e.Refresh(t0.Add(2 * time.Hour))
		return encodeExport(t, e, t0.Add(2*time.Hour))
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("checkpoint bytes depend on recording worker count")
	}
}

// TestEngineWarmStartGuardState: quarantine verdicts and the judge's
// calibration bound survive the restart.
func TestEngineWarmStartGuardState(t *testing.T) {
	mkcfg := func() EngineConfig {
		cfg := DefaultEngineConfig()
		cfg.Metrics = obs.NewRegistry()
		cfg.Guard = estguard.New(estguard.Config{
			Seed: 7, MinRequests: 8, Metrics: obs.NewRegistry(),
		})
		return cfg
	}
	cfgA := mkcfg()
	stA := newCheckpointStore(t, cfgA.StateFingerprint())
	cfgA.Checkpoint = stA
	a := newTestEngine(t, cfgA)

	// A scanner: many distinct docs, no repeats, metronomic 1s gaps.
	at := t0
	for i := 0; i < 400; i++ {
		a.Record("scanner-1", webgraph.DocID(i+10), at)
		at = at.Add(time.Second)
	}
	// And a human-ish client so the clean estimate is non-empty.
	for i := 0; i < 10; i++ {
		a.Record("human-1", 1, at)
		a.Record("human-1", 2, at.Add(7*time.Second))
		at = at.Add(time.Duration(40+17*i) * time.Second)
	}
	a.Refresh(at)

	if st, reason := a.ClientStatus("scanner-1"); st != estguard.Quarantined {
		t.Fatalf("setup: scanner not quarantined (%v %q)", st, reason)
	}
	if err := a.CheckpointNow(at); err != nil {
		t.Fatal(err)
	}
	snap, _, err := stA.Load()
	if err != nil || snap == nil {
		t.Fatalf("Load: %v %v", snap, err)
	}

	cfgB := mkcfg()
	b := newTestEngine(t, cfgB)
	if err := b.WarmStart(snap, at); err != nil {
		t.Fatal(err)
	}
	stB, reasonB := b.ClientStatus("scanner-1")
	_, reasonA := a.ClientStatus("scanner-1")
	if stB != estguard.Quarantined || reasonB != reasonA {
		t.Fatalf("quarantine not restored: %v %q (want %q)", stB, reasonB, reasonA)
	}
	if ja, jb := cfgA.Guard.ExportJudge(), cfgB.Guard.ExportJudge(); ja != jb {
		t.Fatalf("judge bound not restored: %+v vs %+v", ja, jb)
	}
	if ca, cb := cfgA.Guard.ExportClients(), cfgB.Guard.ExportClients(); !reflect.DeepEqual(ca, cb) {
		t.Fatal("client summaries not restored")
	}
}

// TestEngineWarmStartCountsAsRefresh: the first post-restart request must
// not trigger a refresh that would overwrite the restored matrix with a
// freeze of the still-empty accumulator.
func TestEngineWarmStartCountsAsRefresh(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.Metrics = obs.NewRegistry()
	st := newCheckpointStore(t, cfg.StateFingerprint())
	cfgA := cfg
	cfgA.Checkpoint = st
	a := newTestEngine(t, cfgA)
	feedPattern(a, 10)

	snap, _, err := st.Load()
	if err != nil || snap == nil {
		t.Fatalf("Load: %v %v", snap, err)
	}
	b := newTestEngine(t, cfg)
	// Restore "long after" the checkpoint was written: the stale persisted
	// refresh instant must not count against the new process's schedule.
	now := t0.Add(90 * 24 * time.Hour)
	if err := b.WarmStart(snap, now); err != nil {
		t.Fatal(err)
	}
	pairs := b.Stats().Pairs
	if pairs == 0 {
		t.Fatal("setup: warm start restored an empty matrix")
	}
	b.Record("c", 1, now.Add(time.Second))
	if got := b.Stats().Pairs; got != pairs {
		t.Fatalf("first post-restart request wiped the warm matrix: %d -> %d", pairs, got)
	}
	// The regular cadence still applies from the restore instant.
	b.Record("c", 2, now.Add(cfg.RefreshEvery+2*time.Second))
	if got := b.Stats().Refreshes; got != 1 {
		t.Fatalf("refresh schedule not rearmed: %d refreshes", got)
	}
}

// TestEngineWarmStartRejectsInvalid: a frame that decodes but carries
// unusable state must error (the caller then cold-starts) instead of
// publishing garbage.
func TestEngineWarmStartRejectsInvalid(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.Metrics = obs.NewRegistry()
	e := newTestEngine(t, cfg)
	if err := e.WarmStart(nil, t0); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	bad := &checkpoint.Snapshot{Knobs: checkpoint.Knobs{Tp: 2}}
	if err := e.WarmStart(bad, t0); err == nil {
		t.Fatal("out-of-range Tp accepted")
	}
}

func TestStateFingerprintSensitivity(t *testing.T) {
	a := DefaultEngineConfig()
	b := a
	if a.StateFingerprint() != b.StateFingerprint() {
		t.Fatal("identical configs must fingerprint equal")
	}
	b.Window = a.Window * 2
	if a.StateFingerprint() == b.StateFingerprint() {
		t.Fatal("estimation parameter change must change the fingerprint")
	}
	c := a
	c.Tp = 0.9 // runtime knob: rides in the checkpoint, not the fingerprint
	if a.StateFingerprint() != c.StateFingerprint() {
		t.Fatal("runtime knobs must not change the fingerprint")
	}
}
