package estguard

import (
	"sort"
	"sync"

	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// driftState tracks the divergence between live traffic and the request
// distribution the current frozen snapshot was estimated from.
//
// The record path increments sharded per-document counters (commutative,
// so the merged totals — and therefore the score — are independent of
// shard layout and arrival interleaving). At each refresh, Partition
// rebuilds the profile from the clean window and zeroes the live counters,
// so the score always measures "traffic since the snapshot" against
// "traffic that built the snapshot".
type driftState struct {
	cfg Config

	shards [driftShards]driftShard

	mu      sync.Mutex
	profile map[webgraph.DocID]float64 // normalized top-K frequencies
	rest    float64                    // profile mass outside the top-K
}

const driftShards = 32

type driftShard struct {
	mu     sync.Mutex
	counts map[webgraph.DocID]int64
	total  int64
	_      [32]byte // pad to limit false sharing between shard locks
}

func (d *driftState) init(cfg Config) {
	d.cfg = cfg
	for i := range d.shards {
		d.shards[i].counts = make(map[webgraph.DocID]int64)
	}
}

// NoteRequest records one live demand request for drift scoring. Called on
// the engine's concurrent record path; the per-shard mutex bounds
// contention. Below DriftMaxTracked distinct documents per shard the
// counts are commutative (order-independent); past the cap a new document
// displaces the shard's least-counted entry and inherits its count
// (space-saving), keeping the shard's memory bounded at the cost of
// overcounting displaced-then-returning documents — the drift score reads
// the result as "more drift", never less, so the cap can only make the
// guard refresh earlier.
func (g *Guard) NoteRequest(doc webgraph.DocID) {
	s := &g.drift.shards[uint64(doc)%driftShards]
	max := g.cfg.DriftMaxTracked
	s.mu.Lock()
	if _, ok := s.counts[doc]; !ok && max > 0 && len(s.counts) >= max {
		victim := webgraph.None
		min := int64(-1)
		for d, n := range s.counts {
			if min < 0 || n < min || (n == min && d < victim) {
				victim, min = d, n
			}
		}
		delete(s.counts, victim)
		s.counts[doc] = min
	}
	s.counts[doc]++
	s.total++
	s.mu.Unlock()
}

// mergedCounts snapshots the live counters across shards.
func (d *driftState) mergedCounts() (map[webgraph.DocID]int64, int64) {
	merged := make(map[webgraph.DocID]int64)
	var total int64
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for doc, n := range s.counts {
			merged[doc] += n
		}
		total += s.total
		s.mu.Unlock()
	}
	return merged, total
}

// topK reduces a frequency map to its K heaviest entries (ties broken by
// DocID for determinism), returning normalized probabilities and the mass
// left outside the kept set.
func topK(counts map[webgraph.DocID]int64, total int64, k int) (map[webgraph.DocID]float64, float64) {
	if total <= 0 || len(counts) == 0 {
		return nil, 0
	}
	type entry struct {
		doc webgraph.DocID
		n   int64
	}
	all := make([]entry, 0, len(counts))
	for doc, n := range counts {
		all = append(all, entry{doc, n})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].n != all[b].n {
			return all[a].n > all[b].n
		}
		return all[a].doc < all[b].doc
	})
	if k < len(all) {
		all = all[:k]
	}
	out := make(map[webgraph.DocID]float64, len(all))
	var kept float64
	for _, e := range all {
		p := float64(e.n) / float64(total)
		out[e.doc] = p
		kept += p
	}
	return out, 1 - kept
}

// setProfile rebuilds the baseline distribution from the clean refresh
// window and resets the live counters.
func (d *driftState) setProfile(clean []trace.Run) {
	counts := make(map[webgraph.DocID]int64, 256)
	var total int64
	for _, run := range clean {
		for _, v := range run.Visits {
			if v.Doc == webgraph.None {
				continue
			}
			counts[v.Doc]++
			total++
		}
	}
	prof, rest := topK(counts, total, d.cfg.DriftTopK)

	d.mu.Lock()
	d.profile = prof
	d.rest = rest
	d.mu.Unlock()

	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		s.counts = make(map[webgraph.DocID]int64)
		s.total = 0
		s.mu.Unlock()
	}
}

// DriftScore returns the top-K L1 distance, in [0, 2], between the live
// request distribution (since the last refresh) and the profile the
// current snapshot was estimated from. It reports 0 while either side has
// insufficient evidence. Deterministic for given counter state.
func (g *Guard) DriftScore() float64 {
	d := &g.drift
	d.mu.Lock()
	prof, profRest := d.profile, d.rest
	d.mu.Unlock()
	if prof == nil {
		return 0
	}
	merged, total := d.mergedCounts()
	if total < int64(d.cfg.DriftMinSamples) {
		return 0
	}
	live, liveRest := topK(merged, total, d.cfg.DriftTopK)

	// Sum in sorted doc order: float addition does not commute in the last
	// ULP, and the score is part of the byte-deterministic fingerprint.
	profDocs := make([]webgraph.DocID, 0, len(prof))
	for doc := range prof {
		profDocs = append(profDocs, doc)
	}
	sort.Slice(profDocs, func(a, b int) bool { return profDocs[a] < profDocs[b] })

	score := 0.0
	for _, doc := range profDocs {
		p := prof[doc]
		q, ok := live[doc]
		if !ok {
			// In the profile's top-K but not the live top-K: use the
			// exact live frequency so a still-popular document is not
			// misread as vanished.
			q = float64(merged[doc]) / float64(total)
			liveRest -= q
		}
		score += abs(p - q)
		delete(live, doc)
	}
	// Documents in the live top-K but absent from the profile's top-K are
	// newly hot: their baseline mass is at most profRest, so counting their
	// full live mass is a (slight) overestimate bounded by profRest.
	liveDocs := make([]webgraph.DocID, 0, len(live))
	for doc := range live {
		liveDocs = append(liveDocs, doc)
	}
	sort.Slice(liveDocs, func(a, b int) bool { return liveDocs[a] < liveDocs[b] })
	for _, doc := range liveDocs {
		score += live[doc]
	}
	score += abs(profRest - liveRest)
	return score
}

// DriftLoad maps the drift score onto the governor's load scale: 1.0 at
// the configured threshold. Wired as overload.GovernorConfig.Drift so
// sustained estimator drift degrades speculation alongside latency
// pressure.
func (g *Guard) DriftLoad() float64 {
	return g.DriftScore() / g.cfg.DriftThreshold
}

// DriftThreshold exposes the configured early-refresh threshold.
func (g *Guard) DriftThreshold() float64 { return g.cfg.DriftThreshold }

// EarlyRefreshFraction exposes the fraction of the refresh interval that
// must elapse before drift may trigger an early re-freeze.
func (g *Guard) EarlyRefreshFraction() float64 { return g.cfg.EarlyRefreshFraction }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
