package markov

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// EstimateConfig parameterizes P estimation.
type EstimateConfig struct {
	// Window is T_w: D_j counts as dependent on D_i when requested within
	// Window of D_i by the same client. The paper's Figure 4 uses 5 s.
	Window time.Duration
	// StrideTimeout, when positive, additionally requires the requests
	// between D_i and D_j to form a stride (successive gaps below the
	// timeout). §3.2: setting it small restricts dependencies to
	// embeddings; larger values admit traversal dependencies.
	StrideTimeout time.Duration
	// MinOccurrences drops rows for documents requested fewer times than
	// this, avoiding probability estimates from single observations.
	MinOccurrences int
	// Smoothing adds pseudo-observations to the denominator:
	// p = count / (occurrences + Smoothing). A few units of smoothing
	// shrink low-support estimates toward zero — a document seen twice,
	// both times followed by D_j, is *not* evidence that p[i,j] = 1 — while
	// leaving well-supported probabilities (embeddings of popular pages)
	// essentially untouched. Without it, spurious certainty edges on rare
	// documents make the server push large sets of unrelated documents.
	Smoothing float64
}

// DefaultEstimate returns the paper's baseline estimation parameters.
func DefaultEstimate() EstimateConfig {
	return EstimateConfig{
		Window:         5 * time.Second,
		StrideTimeout:  5 * time.Second,
		MinOccurrences: 2,
		Smoothing:      2,
	}
}

// pairSink receives the (occurrence, pair) event stream a trace traversal
// produces. The exact accumulator and the memory-bounded estimator both
// implement it, so they count the *same* events and differ only in how
// they store them — the structural fact behind the bounded estimator's
// test oracle: under its caps it performs bit-identical arithmetic.
type pairSink interface {
	addOcc(i webgraph.DocID)
	addPair(i, j webgraph.DocID)
}

// pairWalk is the shared counting core of all estimators, with the scratch
// one traversal needs; an estimator keeps one so a refresh cycle reuses
// last cycle's buffers.
type pairWalk struct {
	clients []trace.ClientID
	keys    []uint64 // (document, position) of the stride being linked
	prev    []int32  // per position: nearest earlier position with the same document, or -1
}

// accumulate feeds sink the events of tr. When transitive is false, a pair
// (i,j) counts when j follows i within Window (the P relation). When
// transitive is true, a pair counts when j follows i anywhere within the
// same stride — the paper's definition of the closure P*: "a sequence of
// requests starting with document D_i and ending with document D_j, in
// which every request is separated by at most T_w units of time from the
// previous request" (§3.1). Estimating P* directly from the trace avoids
// the inflation a matrix-power closure suffers when many alternative paths
// connect the same pair.
func (w *pairWalk) accumulate(tr *trace.Trace, cfg EstimateConfig, transitive bool, sink pairSink) {
	strideTimeout := cfg.StrideTimeout
	if transitive && strideTimeout <= 0 {
		strideTimeout = cfg.Window
	}
	// Clients are visited in sorted order, not map order. The exact
	// accumulator cannot tell the difference (its additions commute), but
	// space-saving eviction is order-dependent: the bounded estimator's
	// state — and hence benchmark reports under tight caps — is only
	// reproducible run-to-run if the event stream is.
	byClient := tr.ByClient()
	w.clients = w.clients[:0]
	for c := range byClient {
		w.clients = append(w.clients, c)
	}
	slices.Sort(w.clients)
	for _, c := range w.clients {
		reqs := byClient[c]
		// A stride ends at the first gap of strideTimeout or more; without
		// a timeout the client's whole stream is one segment.
		for start := 0; start < len(reqs); {
			end := len(reqs)
			if strideTimeout > 0 {
				end = start + 1
				for end < len(reqs) && reqs[end].Time.Sub(reqs[end-1].Time) < strideTimeout {
					end++
				}
			}
			w.segment(reqs[start:end], cfg.Window, transitive, sink)
			start = end
		}
	}
}

// segment counts one stride: every request is an occurrence of its
// document, and each *distinct* other document after it (within Window
// unless transitive) is one pair. A document at position y has already
// been counted for position x exactly when it also sits somewhere in
// (x, y), i.e. when prev[y] > x — which replaces a set per request with
// one link pass per stride.
func (w *pairWalk) segment(seg []trace.Request, window time.Duration, transitive bool, sink pairSink) {
	prev := w.link(seg)
	for x := range seg {
		i := seg[x].Doc
		if i == webgraph.None {
			continue
		}
		sink.addOcc(i)
		for y := x + 1; y < len(seg); y++ {
			if !transitive && seg[y].Time.Sub(seg[x].Time) > window {
				break
			}
			j := seg[y].Doc
			if j == webgraph.None || j == i || int(prev[y]) > x {
				continue
			}
			sink.addPair(i, j)
		}
	}
}

// link fills w.prev for seg by sorting (document, position) keys: equal
// documents become neighbours in position order. It needs no table over
// the document-ID space, so sparse and negative IDs cost nothing and the
// bounded estimator's footprint stays independent of site size.
func (w *pairWalk) link(seg []trace.Request) []int32 {
	w.prev = slices.Grow(w.prev[:0], len(seg))[:len(seg)]
	if len(seg) < 3 {
		// With two requests a repeat can only be of the first document
		// itself, which the j == i test already skips.
		for y := range w.prev {
			w.prev[y] = -1
		}
		return w.prev
	}
	w.keys = w.keys[:0]
	for y := range seg {
		w.keys = append(w.keys, uint64(uint32(seg[y].Doc))<<32|uint64(y))
	}
	slices.Sort(w.keys)
	for k, key := range w.keys {
		y := int32(uint32(key))
		if k > 0 && w.keys[k-1]>>32 == key>>32 {
			w.prev[y] = int32(uint32(w.keys[k-1]))
		} else {
			w.prev[y] = -1
		}
	}
	return w.prev
}

// docSlots maps a document ID to a compact slot number. IDs a site hands
// out are dense from zero and resolve through a flat table; anything else
// (negative, or past denseDocLimit) goes through a map, so a stray ID
// costs an entry, not a table as large as the ID.
type docSlots struct {
	dense  []int32 // DocID → slot+1; 0 = none
	sparse map[webgraph.DocID]int32
	n      int32
}

// denseDocLimit caps the flat table at 16 MiB.
const denseDocLimit = 1 << 22

// get returns i's slot, or -1 when i has none.
func (d *docSlots) get(i webgraph.DocID) int32 {
	if uint32(i) < uint32(len(d.dense)) {
		return d.dense[i] - 1
	}
	if s, ok := d.sparse[i]; ok {
		return s
	}
	return -1
}

// slot returns i's slot, assigning the next free one on first sight; fresh
// reports that it did.
func (d *docSlots) slot(i webgraph.DocID) (s int32, fresh bool) {
	if s := d.get(i); s >= 0 {
		return s, false
	}
	s = d.n
	d.n++
	switch {
	case i >= 0 && i < denseDocLimit:
		if int(i) >= len(d.dense) {
			d.dense = append(d.dense, make([]int32, int(i)+1-len(d.dense))...)
		}
		d.dense[i] = s + 1
	default:
		if d.sparse == nil {
			d.sparse = make(map[webgraph.DocID]int32)
		}
		d.sparse[i] = s
	}
	return s, true
}

// pairRow is one document's successor counts: two parallel slices ordered
// by ascending successor ID, so a lookup is a binary search, decay is a
// loop over a []float64, and equal-probability successors are already in
// the frozen row's tie order.
type pairRow struct {
	succ  []webgraph.DocID
	count []float64
}

// pairAccumulator is the exact counting store: full per-(i,j) counts and
// per-document occurrences, unbounded, held in flat slot-indexed slices.
// It compiles straight to a Frozen (freeze) without materializing a
// Matrix; snapshot builds the Matrix for offline callers and as the form
// the tests compare. The map-of-maps store it replaced lives on in
// oracle_test.go as its reference: every float operation happens in the
// same order here (k increments of +1, one multiply per decay, one divide
// per freeze), so the two agree bit for bit.
type pairAccumulator struct {
	slots docSlots
	docs  []webgraph.DocID // slot → document
	occ   []float64        // slot → decayed occurrences; 0 = none held
	rows  []pairRow        // slot → successor counts
	pairs int              // Σ len(rows[s].succ)
	order []int32          // slots by ascending document, completed lazily
	// Freeze scratch, per slot: generation<<32 | position of that document
	// in the row being gathered.
	where []uint64
	gen   uint32
}

func newPairAccumulator() *pairAccumulator { return &pairAccumulator{} }

func (a *pairAccumulator) slot(i webgraph.DocID) int32 {
	s, fresh := a.slots.slot(i)
	if fresh {
		a.docs = append(a.docs, i)
		a.occ = append(a.occ, 0)
		a.rows = append(a.rows, pairRow{})
	}
	return s
}

func (a *pairAccumulator) addOcc(i webgraph.DocID) { a.occ[a.slot(i)]++ }

func (a *pairAccumulator) addPair(i, j webgraph.DocID) {
	si := a.slot(i)
	row := &a.rows[si]
	k, found := slices.BinarySearch(row.succ, j)
	if found {
		row.count[k]++
		return
	}
	// Every successor gets a slot of its own, whether or not it is ever
	// counted as an occurrence: freeze notes row positions by slot.
	a.slot(j)
	row = &a.rows[si] // slot(j) may have grown rows
	row.succ = slices.Insert(row.succ, k, j)
	row.count = slices.Insert(row.count, k, 1)
	a.pairs++
}

// occurrences reports the decayed occurrence count of i (0 when unseen).
func (a *pairAccumulator) occurrences(i webgraph.DocID) float64 {
	if s := a.slots.get(i); s >= 0 {
		return a.occ[s]
	}
	return 0
}

// decay ages every count by f and culls what falls below 1e-9. A slot,
// once assigned, stays: a culled document keeps a zero occurrence count
// and an empty row, which every reader treats as absent.
func (a *pairAccumulator) decay(f float64) {
	for s := range a.rows {
		row := &a.rows[s]
		n := 0
		for k, c := range row.count {
			c *= f
			if c < 1e-9 {
				continue
			}
			row.count[n], row.succ[n] = c, row.succ[k]
			n++
		}
		a.pairs -= len(row.count) - n
		row.count, row.succ = row.count[:n], row.succ[:n]
	}
	for s := range a.occ {
		a.occ[s] *= f
		if a.occ[s] < 1e-9 {
			a.occ[s] = 0
		}
	}
}

// nextGen starts a fresh generation of where notes, wiping the table when
// the 32-bit counter wraps so a stale note can never look current.
func (a *pairAccumulator) nextGen() uint64 {
	a.gen++
	if a.gen == 0 || len(a.where) != len(a.docs) {
		a.where = append(a.where[:0], make([]uint64, len(a.docs))...)
		a.gen = 1
	}
	return uint64(a.gen) << 32
}

// ascending returns the slots in ascending document order. New documents
// are rare once a site has been seen, so the order is kept and re-sorted
// only when slots were added.
func (a *pairAccumulator) ascending() []int32 {
	if len(a.order) != len(a.docs) {
		for s := len(a.order); s < len(a.docs); s++ {
			a.order = append(a.order, int32(s))
		}
		slices.SortFunc(a.order, func(x, y int32) int { return cmp.Compare(a.docs[x], a.docs[y]) })
	}
	return a.order
}

// minOccurrences is the row-support cut shared by snapshot and freeze.
func (cfg EstimateConfig) minOccurrences() float64 {
	if cfg.MinOccurrences < 1 {
		return 1
	}
	return float64(cfg.MinOccurrences)
}

// estimable reports whether slot s yields a row: it holds successors and
// its document was seen at least min times.
func (a *pairAccumulator) estimable(s int, min float64) bool {
	return len(a.rows[s].succ) > 0 && a.occ[s] >= min
}

// probability is p[i,j] = count / (occurrences + Smoothing), capped at
// certainty; it panics on NaN exactly as Matrix.Set does.
func probability(i, j webgraph.DocID, c, den float64) float64 {
	p := c / den
	if p > 1 {
		p = 1
	}
	if p != p {
		panic(fmt.Sprintf("markov: invalid probability %v for (%d,%d)", p, i, j))
	}
	return p
}

func (a *pairAccumulator) snapshot(cfg EstimateConfig) *Matrix {
	m := NewMatrix()
	min := cfg.minOccurrences()
	for s := range a.rows {
		if !a.estimable(s, min) {
			continue
		}
		row := &a.rows[s]
		i := a.docs[s]
		den := a.occ[s] + cfg.Smoothing
		out := make(map[webgraph.DocID]float64, len(row.succ))
		for k, c := range row.count {
			if p := probability(i, row.succ[k], c, den); p > 0 {
				out[row.succ[k]] = p
			}
		}
		if len(out) > 0 {
			m.rows[i] = out
		}
	}
	return m
}

// freeze compiles the current estimate directly into its CSR form: the
// result equals Freeze(snapshot(cfg)) — with every row i first passed
// through Matrix.ScaleRow(i, scale(i)) when scale is non-nil — bit for
// bit, without building the Matrix in between.
//
// hint, when non-nil, is an earlier freeze of this store. A cycle moves
// few successors past each other, so each row is gathered in hint's order
// (successors hint lacks go last) and then needs little more than a
// verifying pass to sort. hint changes the work, never the result.
func (a *pairAccumulator) freeze(cfg EstimateConfig, scale func(webgraph.DocID) float64, hint *Frozen) *Frozen {
	min := cfg.minOccurrences()
	order := a.ascending()
	rows, pairs := 0, 0
	for s := range a.rows {
		if a.estimable(s, min) {
			rows++
			pairs += len(a.rows[s].succ)
		}
	}
	f := newFrozen(rows, pairs)
	for _, s := range order {
		if !a.estimable(int(s), min) {
			continue
		}
		row := &a.rows[s]
		i := a.docs[s]
		den := a.occ[s] + cfg.Smoothing
		start := len(f.succ)
		emit := func(k int) {
			if p := probability(i, row.succ[k], row.count[k], den); p > 0 {
				f.succ = append(f.succ, Successor{Doc: row.succ[k], P: p})
			}
		}
		var was []Successor
		if hint != nil {
			was = hint.SortedRow(i)
		}
		if len(was) == 0 {
			for k := range row.succ {
				emit(k)
			}
		} else {
			// Note where each held successor sits, stamped with this row's
			// generation; gathering a successor clears its note, so what
			// is still stamped afterwards is what hint lacks.
			gen := a.nextGen()
			for k, j := range row.succ {
				a.where[a.slots.get(j)] = gen | uint64(k)
			}
			left := len(row.succ)
			for _, h := range was {
				if sj := a.slots.get(h.Doc); sj >= 0 && a.where[sj]&^math.MaxUint32 == gen {
					emit(int(uint32(a.where[sj])))
					a.where[sj] = 0
					left--
				}
			}
			for k := 0; left > 0; k++ {
				if sj := a.slots.get(row.succ[k]); a.where[sj]&^math.MaxUint32 == gen {
					emit(k)
					left--
				}
			}
		}
		if len(f.succ) > start && scale != nil {
			f.succ = f.succ[:start+scaleSuccessors(f.succ[start:], scale(i))]
		}
		if len(f.succ) == start {
			continue
		}
		resortSuccessors(f.succ[start:])
		f.ids = append(f.ids, i)
		f.off = append(f.off, int32(len(f.succ)))
	}
	f.indexDense()
	return f
}

// Estimate computes P from a trace: for each occurrence of document i, the
// set of distinct other documents the same client requests within the
// window (and, when configured, within the same stride) counts once toward
// p[i,j].
func Estimate(tr *trace.Trace, cfg EstimateConfig) (*Matrix, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("markov: window must be positive, got %v", cfg.Window)
	}
	a := newPairAccumulator()
	new(pairWalk).accumulate(tr, cfg, false, a)
	return a.snapshot(cfg), nil
}

// EstimateTransitive computes P* directly from the trace per the paper's
// §3.1 definition: p*[i,j] is the probability that D_j follows D_i within
// the same traversal stride (successive gaps below StrideTimeout, which
// defaults to Window when unset).
func EstimateTransitive(tr *trace.Trace, cfg EstimateConfig) (*Matrix, error) {
	if cfg.Window <= 0 && cfg.StrideTimeout <= 0 {
		return nil, fmt.Errorf("markov: need a positive window or stride timeout")
	}
	a := newPairAccumulator()
	new(pairWalk).accumulate(tr, cfg, true, a)
	return a.snapshot(cfg), nil
}

// EstimatorStats describes an estimator's storage footprint and loss.
// For the exact estimator the evicted tallies are always zero; for the
// bounded estimator they are the cumulative space-saving eviction ledger.
// Every field is a deterministic function of the ingested traces, so the
// struct can ride in byte-compared benchmark reports.
type EstimatorStats struct {
	// TrackedRows and TrackedPairs size the live accumulator (before
	// MinOccurrences filtering).
	TrackedRows  int `json:"tracked_rows"`
	TrackedPairs int `json:"tracked_pairs"`
	// EvictedRows / EvictedPairs count cumulative space-saving evictions;
	// EvictedMass is the (decayed) count mass those evictions dropped.
	EvictedRows  int64   `json:"evicted_rows,omitempty"`
	EvictedPairs int64   `json:"evicted_pairs,omitempty"`
	EvictedMass  float64 `json:"evicted_mass,omitempty"`
	// ErrorBound is the largest per-entry overcount currently tracked
	// (the space-saving ε): for every tracked pair,
	// count − ErrorBound ≤ true count ≤ count.
	ErrorBound float64 `json:"error_bound,omitempty"`
	// MemoryBytes is the estimator's analytic live footprint — computed
	// from entry counts and fixed per-entry costs, not from the runtime
	// heap, so it is deterministic and gateable in CI.
	MemoryBytes int64 `json:"memory_bytes"`
}

// Estimator is the engine-facing estimation contract: fold a window of
// traffic in, compile the current estimate, and report per-row support.
// Two implementations exist — the exact *Aging (the reference and test
// oracle) and the memory-bounded *Bounded — selected by configuration, so
// every downstream consumer (trust scoring, drift, checkpointing) is
// representation-agnostic.
type Estimator interface {
	// AddDay decays the accumulated state by one refresh interval and
	// folds in the window's trace.
	AddDay(day *trace.Trace) error
	// Freeze compiles the current estimate into its immutable CSR form.
	// A non-nil scale damps row i by scale(i) first, under
	// Matrix.ScaleRow's rules (≤ 0 drops the row, ≥ 1 leaves it alone).
	// patched reports that the estimator produced the result by patching
	// the rows that changed into its previous unscaled Freeze rather than
	// compiling every row; the bytes are the same either way.
	Freeze(scale func(webgraph.DocID) float64) (f *Frozen, patched bool)
	// Occurrences reports the decayed occurrence count backing row i.
	Occurrences(i webgraph.DocID) float64
	// EstimatorStats reports the storage footprint and eviction ledger.
	EstimatorStats() EstimatorStats
}

// Aging maintains an exponentially-decayed estimate of P (or P* when
// Transitive is set), the "aging mechanism to phase-out dependencies
// exhibited in older traces" of §3.4. Counts from d days ago carry weight
// Decay^d.
type Aging struct {
	// Decay is the per-day retention factor in (0, 1].
	Decay float64
	// Transitive selects the P* (stride) pairing instead of the windowed
	// P pairing.
	Transitive bool

	cfg  EstimateConfig
	acc  *pairAccumulator
	walk pairWalk
	last *Frozen // the previous Freeze, whose row order seeds the next
}

// NewAging returns an aging estimator. It panics on decay outside (0, 1].
func NewAging(decay float64, cfg EstimateConfig) *Aging {
	if decay <= 0 || decay > 1 || math.IsNaN(decay) {
		panic(fmt.Sprintf("markov: decay %v outside (0,1]", decay))
	}
	return &Aging{Decay: decay, cfg: cfg, acc: newPairAccumulator()}
}

// AddDay decays the accumulated state by one day and folds in the given
// day's trace.
func (a *Aging) AddDay(day *trace.Trace) error {
	if a.cfg.Window <= 0 {
		return fmt.Errorf("markov: aging estimator has non-positive window")
	}
	// Multiplying by 1 changes no count and culls nothing: every held
	// count is at least 1e-9 already.
	if a.Decay < 1 {
		a.acc.decay(a.Decay)
	}
	a.walk.accumulate(day, a.cfg, a.Transitive, a.acc)
	return nil
}

// Snapshot materializes the current decayed estimate as a Matrix, for
// offline analysis (closure, histograms) and as the form tests compare;
// the engine's refresh path uses Freeze and never builds one.
func (a *Aging) Snapshot() *Matrix {
	return a.acc.snapshot(a.cfg)
}

// Freeze compiles the current decayed estimate straight to its CSR form,
// equal bit for bit to Freeze(Snapshot()) with scale applied row by row.
// The exact estimator always compiles every row, so patched is false.
func (a *Aging) Freeze(scale func(webgraph.DocID) float64) (*Frozen, bool) {
	a.last = a.acc.freeze(a.cfg, scale, a.last)
	return a.last, false
}

// Occurrences reports the decayed occurrence count backing row i — the
// per-row sample support ("row provenance") that trust scoring reads: a
// row estimated from two sightings is not a row estimated from two
// hundred, even when both produce the same probabilities.
func (a *Aging) Occurrences(i webgraph.DocID) float64 {
	return a.acc.occurrences(i)
}

// Pairs reports the number of (i,j) dependency pairs currently held by
// the accumulator, before MinOccurrences filtering.
func (a *Aging) Pairs() int { return a.acc.pairs }

// Analytic per-entry storage costs behind the estimators' MemoryBytes
// accounting. Their exact values matter less than their being fixed: the
// memory gate compares growth ratios, not absolute bytes.
const (
	mapEntryBytes = 48 // one map[DocID]float64 entry incl. bucket share
	mapFixedBytes = 96 // map header + first bucket

	flatPairBytes = 12 // successor ID + count in a row's parallel slices
	flatSlotBytes = 68 // document ID, occurrence count, two slice headers, index and order words
)

// EstimatorStats reports the exact estimator's footprint: rows and pairs
// tracked in full, nothing ever evicted. Memory grows with the number of
// distinct documents and dependency pairs — the unbounded behavior the
// bounded estimator exists to cap.
func (a *Aging) EstimatorStats() EstimatorStats {
	rows := 0
	for s := range a.acc.rows {
		if len(a.acc.rows[s].succ) > 0 {
			rows++
		}
	}
	return EstimatorStats{
		TrackedRows:  rows,
		TrackedPairs: a.acc.pairs,
		MemoryBytes:  int64(len(a.acc.docs))*flatSlotBytes + int64(a.acc.pairs)*flatPairBytes,
	}
}
