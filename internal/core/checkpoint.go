package core

import (
	"errors"
	"fmt"
	"time"

	"specweb/internal/checkpoint"
	"specweb/internal/markov"
)

// Crash-safe state. The engine persists exactly its published decision
// state — the frozen matrix behind the atomic snapshot pointer, the knobs
// in force, and the guard's client/judge summaries — and deliberately not
// the live ingestion state (shard buffers, the aging pair accumulator,
// the open-stride carry, the drift window). The published state is what
// serves requests; the ingestion state describes a window the dead
// process will never finish, and rebuilding it from post-restart traffic
// is both correct and cheap. DESIGN §13 spells out the contract.

// StateFingerprint hashes the configuration fields that change what
// persisted state *means*: the estimation parameters that shaped P[i,j]
// and whether a guard contributed client summaries. Runtime knobs (Tp,
// TopK, MaxSize, EmbedThreshold) are excluded on purpose — they ride in
// the checkpoint itself so a warm start resumes the governor's tuning.
func (c *EngineConfig) StateFingerprint() uint64 {
	desc := fmt.Sprintf(
		"core.EngineConfig/v1|window=%d|stride=%d|minocc=%d|smooth=%g|decay=%g|refresh=%d|guard=%t",
		c.Window, c.StrideTimeout, c.MinOccurrences, c.Smoothing,
		c.DecayPerDay, c.RefreshEvery, c.Guard != nil)
	// The bounding caps change what the persisted rows mean (they are the
	// space-saving survivors, not the full estimate), so they join the
	// fingerprint — but only when bounding is on, keeping every
	// exact-estimator fingerprint identical to pre-bounding builds.
	if b, ok := c.bounded(); ok {
		desc += fmt.Sprintf("|maxrows=%d|topk=%d", b.MaxRows, b.RowTopK)
	}
	return checkpoint.Fingerprint(desc)
}

// exportCheckpointLocked captures the engine's persisted state as of the
// currently published snapshot. Caller holds mu.
func (e *Engine) exportCheckpointLocked(at time.Time) *checkpoint.Snapshot {
	snap := e.snap.Load()
	cs := &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			CreatedUnixNano:     at.UnixNano(),
			Recorded:            e.recorded.Load(),
			LastRefreshUnixNano: e.lastRefresh.Load(),
		},
		Knobs: checkpoint.Knobs{
			Tp:      e.cfg.Tp,
			Embed:   e.cfg.EmbedThreshold,
			MaxSize: e.cfg.MaxSize,
			TopK:    int32(e.cfg.TopK),
		},
		Rows: checkpoint.RowsFromFrozen(snap.frozen),
	}
	if g := e.cfg.Guard; g != nil {
		cs.Clients = g.ExportClients()
		cs.Judge = g.ExportJudge()
	}
	// Bounded engines persist the caps and the cumulative eviction ledger
	// (selecting checkpoint codec version 2); exact engines leave the
	// section nil and keep emitting byte-identical version-1 frames.
	if b, ok := e.cfg.bounded(); ok {
		st := e.est.EstimatorStats()
		cs.Estimator = &checkpoint.EstimatorState{
			MaxRows:      int32(b.MaxRows),
			RowTopK:      int32(b.RowTopK),
			EvictedRows:  st.EvictedRows,
			EvictedPairs: st.EvictedPairs,
			EvictedMass:  st.EvictedMass,
		}
	}
	return cs
}

// saveCheckpointLocked persists the just-published snapshot. Best-effort
// by design: a full disk must degrade durability, not speculation — the
// store counts the failure and the previous frame keeps serving restarts.
// Caller holds mu.
func (e *Engine) saveCheckpointLocked(at time.Time) {
	st := e.cfg.Checkpoint
	if st == nil {
		return
	}
	st.Save(e.exportCheckpointLocked(at)) // errors counted by the store
}

// CheckpointNow synchronously persists the current published state —
// the SIGHUP / graceful-shutdown / interval-timer entry point. Unlike the
// refresh-path hook it surfaces the write error, so operators see a
// failing final checkpoint. No-op (nil) without a configured store.
func (e *Engine) CheckpointNow(at time.Time) error {
	if e.cfg.Checkpoint == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.cfg.Checkpoint.Save(e.exportCheckpointLocked(at))
	return err
}

// WarmStart republishes a decoded checkpoint as the engine's live
// decision state, before any listener opens. The frozen matrix is rebuilt
// from the frame's rows (re-validated — the file crossed a trust
// boundary), the persisted knobs replace the configured ones, and the
// guard's client population and judge bound are restored.
//
// The restore time `now` becomes the engine's last-refresh instant: a
// warm start counts as a refresh for scheduling, so the first
// post-restart request cannot immediately trigger a refresh that would
// overwrite the restored matrix with a freeze of the empty accumulator.
func (e *Engine) WarmStart(cs *checkpoint.Snapshot, now time.Time) error {
	if cs == nil {
		return errors.New("core: warm start from nil checkpoint")
	}
	frozen, err := checkpoint.FrozenFromRows(cs.Rows)
	if err != nil {
		return fmt.Errorf("core: warm start: %w", err)
	}
	if cs.Knobs.Tp < 0 || cs.Knobs.Tp > 1 {
		return fmt.Errorf("core: warm start: Tp %v outside [0,1]", cs.Knobs.Tp)
	}
	if cs.Knobs.MaxSize < 0 || cs.Knobs.TopK < 0 {
		return fmt.Errorf("core: warm start: negative limits")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.Tp = cs.Knobs.Tp
	e.cfg.EmbedThreshold = cs.Knobs.Embed
	e.cfg.MaxSize = cs.Knobs.MaxSize
	e.cfg.TopK = int(cs.Knobs.TopK)
	if g := e.cfg.Guard; g != nil {
		g.ImportClients(cs.Clients)
		g.ImportJudge(cs.Judge)
	}
	// Restore the bounded estimator's cumulative eviction ledger so the
	// counters stay monotone across the restart (the live space-saving
	// store itself re-trains from post-restart traffic). A frame from an
	// exact engine cannot reach a bounded one or vice versa — the caps are
	// in the fingerprint — so the type assertion cannot misfire.
	if cs.Estimator != nil {
		if b, ok := e.est.(*markov.Bounded); ok {
			b.ImportCounters(cs.Estimator.EvictedRows, cs.Estimator.EvictedPairs, cs.Estimator.EvictedMass)
		}
		e.captureEstStatsLocked()
	}
	e.installLocked(frozen)
	e.met.pairs.Set(float64(frozen.NumPairs()))
	e.met.docs.Set(float64(frozen.NumRows()))
	e.recorded.Store(cs.Meta.Recorded)
	e.lastRefresh.Store(now.UnixNano())
	e.started.Store(true)
	return nil
}
