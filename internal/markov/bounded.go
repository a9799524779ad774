package markov

import (
	"fmt"
	"math"
	"slices"

	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// Memory-bounded streaming estimation.
//
// The exact estimator keeps one float64 per observed (i,j) dependency pair
// and one per document — at million-document cardinality that unbounded
// map is the scaling wall (ROADMAP: "streaming, memory-bounded Markov
// estimation"). Bounded replaces it with three fixed-size structures:
//
//   - per-row space-saving top-K successor tracking: each row holds at
//     most RowTopK (count, err) entries; an overflowing insert evicts the
//     minimum-count entry and admits the newcomer with count = min+1,
//     err = min, so for every tracked pair
//     count − err ≤ true count ≤ count (the space-saving sandwich) and
//     err ≤ (row increment mass)/K (the ε guarantee);
//   - a hard cap on tracked rows with popularity-ranked admission: when
//     MaxRows rows are live, a new document evicts the row with the
//     smallest occurrence count and inherits that count as its occ error
//     — space-saving applied at row granularity, so persistently popular
//     rows are never displaced by scan traffic;
//   - a count-min sketch accumulating the mass of every evicted pair, so
//     EvictedBound(i,j) upper-bounds what was dropped for any pair
//     without storing it.
//
// Determinism and the test oracle: Bounded implements the same pairSink
// event stream as the exact accumulator and performs bit-identical float
// arithmetic (the same increments, the same decay multiplies, the same
// 1e-9 cull, the same count/(occ+smoothing) division). While nothing has
// been evicted — every row width ≤ RowTopK and distinct documents ≤
// MaxRows — its Snapshot is therefore byte-identical to the exact
// estimator's, which is what the conformance matrix and the property
// tests in bounded_test.go pin.
type BoundedConfig struct {
	// MaxRows caps the number of tracked rows (documents). 0 takes the
	// default.
	MaxRows int
	// RowTopK caps successors tracked per row. 0 takes the default.
	RowTopK int
	// SketchWidth and SketchDepth size the count-min sketch that bounds
	// evicted mass; 0 takes the defaults.
	SketchWidth int
	SketchDepth int
}

// DefaultBounded returns production-shaped caps: 64Ki rows of 32
// successors bounds the accumulator near 100 MB regardless of site size,
// while staying exact for every site the conformance suite drives.
func DefaultBounded() BoundedConfig {
	return BoundedConfig{MaxRows: 1 << 16, RowTopK: 32, SketchWidth: 2048, SketchDepth: 4}
}

func (c BoundedConfig) withDefaults() BoundedConfig {
	d := DefaultBounded()
	if c.MaxRows <= 0 {
		c.MaxRows = d.MaxRows
	}
	if c.RowTopK <= 0 {
		c.RowTopK = d.RowTopK
	}
	if c.SketchWidth <= 0 {
		c.SketchWidth = d.SketchWidth
	}
	if c.SketchDepth <= 0 {
		c.SketchDepth = d.SketchDepth
	}
	return c
}

// ssEntry is one space-saving successor slot.
type ssEntry struct {
	count float64 // observed count plus inherited overcount
	err   float64 // the inherited part: count − err ≤ true ≤ count
}

// boundedRow is one tracked document's successor store.
type boundedRow struct {
	occ    float64 // decayed occurrence count (incl. occErr)
	occErr float64 // occurrence mass inherited at row admission
	succ   map[webgraph.DocID]*ssEntry
}

// Both estimators satisfy the engine-facing contract and the counting
// sink, so they consume the identical event stream.
var (
	_ Estimator = (*Aging)(nil)
	_ Estimator = (*Bounded)(nil)
	_ pairSink  = (*pairAccumulator)(nil)
	_ pairSink  = (*Bounded)(nil)
)

// Bounded is the memory-bounded streaming estimator. Like Aging it is
// single-writer: the engine calls AddRuns/Freeze under its refresh
// mutex. It is not safe for concurrent mutation.
type Bounded struct {
	// Transitive selects the P* (stride) pairing instead of the windowed
	// P pairing, as on Aging.
	Transitive bool

	decay float64
	cfg   EstimateConfig
	bcfg  BoundedConfig

	rows   map[webgraph.DocID]*boundedRow
	sketch *countMin

	// Eviction ledger (cumulative, monotone except for decay on mass).
	evictedRows  int64
	evictedPairs int64
	evictedMass  float64

	// Dirty tracking for delta-freezing: rows touched since the last
	// Snapshot. allDirty short-circuits when decay re-weighted every row.
	dirty        map[webgraph.DocID]struct{}
	allDirty     bool
	lastDirty    []webgraph.DocID
	lastDirtyAll bool
	// base is the previous unscaled Freeze, kept while the dirty set still
	// describes everything that changed since it: the precondition for
	// patching only dirty rows. A scaled Freeze or a Snapshot taken by
	// anyone else consumes the dirty set without producing a base, so both
	// clear it and the next Freeze compiles in full.
	base *Frozen

	walk pairWalk
}

// NewBounded returns a bounded estimator with the given decay per refresh
// interval. It panics on decay outside (0, 1], mirroring NewAging.
func NewBounded(decay float64, cfg EstimateConfig, bcfg BoundedConfig) *Bounded {
	if decay <= 0 || decay > 1 || math.IsNaN(decay) {
		panic(fmt.Sprintf("markov: decay %v outside (0,1]", decay))
	}
	bcfg = bcfg.withDefaults()
	return &Bounded{
		decay:        decay,
		cfg:          cfg,
		bcfg:         bcfg,
		rows:         make(map[webgraph.DocID]*boundedRow),
		sketch:       newCountMin(bcfg.SketchWidth, bcfg.SketchDepth),
		dirty:        make(map[webgraph.DocID]struct{}),
		allDirty:     true, // before the first Snapshot, everything is new
		lastDirtyAll: true,
	}
}

// Config returns the bounding parameters in force (after defaulting).
func (b *Bounded) Config() BoundedConfig { return b.bcfg }

func (b *Bounded) markDirty(i webgraph.DocID) {
	if b.allDirty {
		return
	}
	b.dirty[i] = struct{}{}
}

// row returns document i's tracked row, admitting it — evicting the
// least-popular row when the table is full — if absent.
func (b *Bounded) row(i webgraph.DocID) *boundedRow {
	if r, ok := b.rows[i]; ok {
		return r
	}
	r := &boundedRow{succ: make(map[webgraph.DocID]*ssEntry)}
	if len(b.rows) >= b.bcfg.MaxRows {
		// Popularity-ranked admission: displace the row with the least
		// occurrence support (ties by ascending DocID, deterministically)
		// and inherit its count as this row's overcount, space-saving
		// style. The evicted row's pairs are folded into the sketch so
		// their mass stays bounded, not lost.
		victim := webgraph.None
		minOcc := math.Inf(1)
		for doc, vr := range b.rows {
			if vr.occ < minOcc || (vr.occ == minOcc && doc < victim) {
				victim, minOcc = doc, vr.occ
			}
		}
		vr := b.rows[victim]
		for doc, e := range vr.succ {
			b.sketch.add(victim, doc, e.count)
			b.evictedMass += e.count - e.err
		}
		b.evictedRows++
		b.evictedPairs += int64(len(vr.succ))
		delete(b.rows, victim)
		b.markDirty(victim)
		r.occ = vr.occ
		r.occErr = vr.occ
	}
	b.rows[i] = r
	return r
}

// addOcc implements pairSink: one occurrence of document i.
func (b *Bounded) addOcc(i webgraph.DocID) {
	r := b.row(i)
	r.occ++
	b.markDirty(i)
}

// addPair implements pairSink: one (i,j) dependency observation, counted
// with per-row space-saving semantics.
func (b *Bounded) addPair(i, j webgraph.DocID) {
	r := b.row(i)
	if e, ok := r.succ[j]; ok {
		e.count++
		b.markDirty(i)
		return
	}
	if len(r.succ) < b.bcfg.RowTopK {
		r.succ[j] = &ssEntry{count: 1}
		b.markDirty(i)
		return
	}
	// Row full: evict the minimum-count successor (ties by ascending
	// DocID) and admit j with the classic space-saving inheritance.
	victim := webgraph.None
	var ve *ssEntry
	for doc, e := range r.succ {
		if ve == nil || e.count < ve.count || (e.count == ve.count && doc < victim) {
			victim, ve = doc, e
		}
	}
	b.sketch.add(i, victim, ve.count)
	b.evictedMass += ve.count - ve.err
	b.evictedPairs++
	delete(r.succ, victim)
	r.succ[j] = &ssEntry{count: ve.count + 1, err: ve.count}
	b.markDirty(i)
}

// AddDay decays the accumulated state by one refresh interval and folds
// in the given window's trace — the bounded counterpart of Aging.AddDay,
// performing the identical float operations on every surviving entry.
func (b *Bounded) AddDay(day *trace.Trace) error {
	return b.AddRuns(day.Runs())
}

// AddRuns is AddDay over a window already grouped by client, as the engine
// buffers it.
func (b *Bounded) AddRuns(runs []trace.Run) error {
	if b.cfg.Window <= 0 {
		return fmt.Errorf("markov: bounded estimator has non-positive window")
	}
	if b.decay < 1 {
		// Decay re-weights every row, so the whole snapshot is dirty and
		// delta-freezing has nothing to patch against.
		b.allDirty = true
		for i := range b.dirty {
			delete(b.dirty, i)
		}
		for i, r := range b.rows {
			for j, e := range r.succ {
				e.count *= b.decay
				if e.count < 1e-9 {
					delete(r.succ, j)
					continue
				}
				e.err *= b.decay
			}
			r.occ *= b.decay
			r.occErr *= b.decay
			if r.occ < 1e-9 && len(r.succ) == 0 {
				delete(b.rows, i)
			}
		}
		b.sketch.scale(b.decay)
		b.evictedMass *= b.decay
	}
	b.walk.accumulate(runs, b.cfg, b.Transitive, b)
	return nil
}

// Snapshot materializes the current bounded estimate. In the no-eviction
// regime it is byte-identical to the exact estimator's snapshot (same
// counts, same division, same MinOccurrences filter); with evictions the
// tracked probabilities are the space-saving overestimates and the matrix
// carries the eviction tally. Snapshot also latches the dirty row set for
// DirtyDocs and starts a fresh one.
func (b *Bounded) Snapshot() *Matrix {
	b.base = nil // the dirty set is consumed below; see Freeze
	m := NewMatrix()
	min := b.cfg.minOccurrences()
	for i, r := range b.rows {
		if len(r.succ) == 0 || r.occ < min {
			continue
		}
		den := r.occ + b.cfg.Smoothing
		for j, e := range r.succ {
			p := e.count / den
			if p > 1 {
				p = 1
			}
			m.Set(i, j, p)
		}
	}
	m.SetEvictedPairs(b.evictedPairs)

	// Latch the change set between the previous snapshot and this one.
	b.lastDirtyAll = b.allDirty
	if b.allDirty {
		b.lastDirty = nil
	} else {
		b.lastDirty = make([]webgraph.DocID, 0, len(b.dirty))
		for i := range b.dirty {
			b.lastDirty = append(b.lastDirty, i)
		}
		slices.Sort(b.lastDirty)
	}
	b.dirty = make(map[webgraph.DocID]struct{})
	b.allDirty = false
	return m
}

// Freeze compiles the current bounded estimate: Snapshot, then a full
// Freeze — or, when nothing but a known set of rows changed since the
// previous unscaled Freeze, DeltaFreeze of those rows into it, which is
// byte-identical and skips the sort of every clean row. Trust-damped
// output is not the estimator's own snapshot, so a non-nil scale always
// compiles in full and leaves no base to patch next time.
func (b *Bounded) Freeze(scale func(webgraph.DocID) float64) (f *Frozen, patched bool) {
	base := b.base
	m := b.Snapshot()
	if scale != nil {
		for _, i := range m.Docs() {
			m.ScaleRow(i, scale(i))
		}
		return Freeze(m), false
	}
	if dirty, ok := b.DirtyDocs(); ok && base != nil {
		f, patched = DeltaFreeze(base, m, dirty), true
	} else {
		f = Freeze(m)
	}
	b.base = f
	return f, patched
}

// DirtyDocs reports the rows that changed between the two most recent
// snapshots, in ascending order. ok is false when every row may have
// changed (before the first snapshot, or when decay re-weighted the whole
// store), in which case callers must freeze in full.
func (b *Bounded) DirtyDocs() ([]webgraph.DocID, bool) {
	if b.lastDirtyAll {
		return nil, false
	}
	return b.lastDirty, true
}

// Occurrences reports the decayed occurrence count backing row i,
// including any admission-inherited overcount (0 when untracked).
func (b *Bounded) Occurrences(i webgraph.DocID) float64 {
	if r, ok := b.rows[i]; ok {
		return r.occ
	}
	return 0
}

// Pairs reports the number of (i,j) pairs currently tracked.
func (b *Bounded) Pairs() int {
	n := 0
	for _, r := range b.rows {
		n += len(r.succ)
	}
	return n
}

// EvictedBound returns an upper bound on the (decayed) count mass evicted
// for pair (i,j): the count-min estimate, which over-approximates only by
// hash collisions, never under. 0 means nothing was provably dropped.
func (b *Bounded) EvictedBound(i, j webgraph.DocID) float64 {
	return b.sketch.estimate(i, j)
}

// ErrorBound returns the largest per-entry overcount currently tracked —
// the realized space-saving ε: for every tracked pair,
// count − ErrorBound ≤ true count ≤ count.
func (b *Bounded) ErrorBound() float64 {
	var worst float64
	for _, r := range b.rows {
		if r.occErr > worst {
			worst = r.occErr
		}
		for _, e := range r.succ {
			if e.err > worst {
				worst = e.err
			}
		}
	}
	return worst
}

// ImportCounters restores the cumulative eviction ledger from a
// checkpoint, so the eviction counters stay monotone across a warm
// restart even though the live store restarts empty.
func (b *Bounded) ImportCounters(rows, pairs int64, mass float64) {
	if rows > b.evictedRows {
		b.evictedRows = rows
	}
	if pairs > b.evictedPairs {
		b.evictedPairs = pairs
	}
	if mass > b.evictedMass {
		b.evictedMass = mass
	}
}

// EstimatorStats reports the bounded estimator's footprint and eviction
// ledger. MemoryBytes is analytic (entry counts × fixed per-entry costs
// plus the fixed sketch), hence deterministic: with the caps saturated it
// stops growing no matter how many documents the site has.
func (b *Bounded) EstimatorStats() EstimatorStats {
	pairs := b.Pairs()
	mem := int64(mapFixedBytes) // rows header
	// Outer entry + row struct + inner map header per row; entry struct +
	// pointer + map entry per pair.
	mem += int64(len(b.rows)) * (mapEntryBytes + 32 + mapFixedBytes)
	mem += int64(pairs) * (mapEntryBytes + 16)
	mem += b.sketch.bytes()
	mem += int64(len(b.dirty)+len(b.lastDirty)) * 8
	return EstimatorStats{
		TrackedRows:  len(b.rows),
		TrackedPairs: pairs,
		EvictedRows:  b.evictedRows,
		EvictedPairs: b.evictedPairs,
		EvictedMass:  b.evictedMass,
		ErrorBound:   b.ErrorBound(),
		MemoryBytes:  mem,
	}
}

// countMin is a depth×width count-min sketch over (i,j) pair keys with
// float64 cells, used to upper-bound the mass of evicted pairs. Adds and
// scales are deterministic for a given operation sequence.
type countMin struct {
	w, d  int
	cells []float64
}

func newCountMin(w, d int) *countMin {
	return &countMin{w: w, d: d, cells: make([]float64, w*d)}
}

// pairKey packs an (i,j) pair into the 64-bit hash input.
func pairKey(i, j webgraph.DocID) uint64 {
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// splitmix64 is the finalizer used to derive per-depth hash rows.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *countMin) idx(r int, key uint64) int {
	h := splitmix64(key ^ (uint64(r+1) * 0x9e3779b97f4a7c15))
	return r*c.w + int(h%uint64(c.w))
}

func (c *countMin) add(i, j webgraph.DocID, v float64) {
	key := pairKey(i, j)
	for r := 0; r < c.d; r++ {
		c.cells[c.idx(r, key)] += v
	}
}

func (c *countMin) estimate(i, j webgraph.DocID) float64 {
	key := pairKey(i, j)
	est := math.Inf(1)
	for r := 0; r < c.d; r++ {
		if v := c.cells[c.idx(r, key)]; v < est {
			est = v
		}
	}
	return est
}

func (c *countMin) scale(f float64) {
	for i := range c.cells {
		c.cells[i] *= f
	}
}

func (c *countMin) bytes() int64 { return int64(len(c.cells)) * 8 }
