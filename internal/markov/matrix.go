// Package markov implements the document access-interdependency model of
// §3.1: the conditional-probability matrix P, where p[i,j] is the
// probability that document D_j is requested within a window T_w of a
// request for D_i, and its closure P*, which extends P to chains of
// requests each at most T_w apart.
//
// P is estimated from server logs exactly as the paper describes; the
// closure is computed by the monotone fixpoint X ← clamp₁(P + P·X), which
// sums path products over all chain lengths and clamps at 1 (the paper
// writes the closure as P^N; the clamped fixpoint is the same quantity with
// probabilities capped at certainty, and converges because the iteration is
// monotone and bounded). Sparse rows are pruned below a threshold to keep
// the matrices tractable, as any real deployment would.
package markov

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"specweb/internal/stats"
	"specweb/internal/webgraph"
)

// Matrix is a sparse row-major matrix of probabilities indexed by document
// ID. A missing entry is 0.
type Matrix struct {
	rows map[webgraph.DocID]map[webgraph.DocID]float64
	// evictedPairs annotates a snapshot produced by a bounded estimator
	// with the cumulative number of (i,j) pairs its space-saving store
	// evicted — pairs that existed in the traffic but are absent here.
	// Always 0 for exact estimation, so NumPairs ("tracked") and
	// EvictedPairs never conflate and benchmark baselines cannot shift
	// silently when bounding is enabled.
	evictedPairs int64
}

// NewMatrix returns an empty matrix.
func NewMatrix() *Matrix {
	return &Matrix{rows: make(map[webgraph.DocID]map[webgraph.DocID]float64)}
}

// Get returns p[i,j].
func (m *Matrix) Get(i, j webgraph.DocID) float64 {
	return m.rows[i][j]
}

// Set stores p[i,j], dropping the entry when p <= 0. It panics on p > 1 or
// NaN, which would indicate a corrupted estimation.
func (m *Matrix) Set(i, j webgraph.DocID, p float64) {
	if p != p || p > 1+1e-12 {
		panic(fmt.Sprintf("markov: invalid probability %v for (%d,%d)", p, i, j))
	}
	if p <= 0 {
		if row, ok := m.rows[i]; ok {
			delete(row, j)
			if len(row) == 0 {
				delete(m.rows, i)
			}
		}
		return
	}
	if p > 1 {
		p = 1
	}
	row, ok := m.rows[i]
	if !ok {
		row = make(map[webgraph.DocID]float64)
		m.rows[i] = row
	}
	row[j] = p
}

// Row returns a copy of document i's successors and probabilities. The
// copy is safe to hold and modify, at the cost of an allocation per call;
// iteration-only callers should use RangeRow, and hot paths should operate
// on a Frozen snapshot instead.
func (m *Matrix) Row(i webgraph.DocID) map[webgraph.DocID]float64 {
	row := m.rows[i]
	if row == nil {
		return nil
	}
	out := make(map[webgraph.DocID]float64, len(row))
	for j, p := range row {
		out[j] = p
	}
	return out
}

// RangeRow visits document i's successors without copying the row.
// Returning false stops the iteration. The visit order is unspecified.
func (m *Matrix) RangeRow(i webgraph.DocID, fn func(j webgraph.DocID, p float64) bool) {
	for j, p := range m.rows[i] {
		if !fn(j, p) {
			return
		}
	}
}

// RowLen returns the number of successors of i without copying the row.
func (m *Matrix) RowLen(i webgraph.DocID) int { return len(m.rows[i]) }

// Successors returns row i as a slice sorted by decreasing probability
// (ties by DocID), for deterministic policy evaluation.
type Successor struct {
	Doc webgraph.DocID
	P   float64
}

// SortedRow returns the successors of i in decreasing probability order.
func (m *Matrix) SortedRow(i webgraph.DocID) []Successor {
	row := m.rows[i]
	out := make([]Successor, 0, len(row))
	for j, p := range row {
		out = append(out, Successor{Doc: j, P: p})
	}
	sortSuccessors(out)
	return out
}

// Docs returns the IDs of all documents with at least one successor, in
// ascending order, so callers can iterate rows deterministically.
func (m *Matrix) Docs() []webgraph.DocID {
	out := make([]webgraph.DocID, 0, len(m.rows))
	for i := range m.rows {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// ScaleRow multiplies every probability in row i by f, deleting entries
// that fall to (or below) zero weight. Used by trust damping: scaling a
// low-trust row pushes its entries below the push/hint thresholds without
// disturbing the relative order of its successors.
func (m *Matrix) ScaleRow(i webgraph.DocID, f float64) {
	row := m.rows[i]
	if row == nil {
		return
	}
	if f <= 0 {
		delete(m.rows, i)
		return
	}
	if f >= 1 {
		return
	}
	for j, p := range row {
		p *= f
		if p < 1e-9 {
			delete(row, j)
		} else {
			row[j] = p
		}
	}
	if len(row) == 0 {
		delete(m.rows, i)
	}
}

// NumPairs returns the number of (i,j) entries stored — the *tracked*
// pairs. Pairs a bounded estimator evicted are deliberately not included;
// they are reported separately by EvictedPairs.
func (m *Matrix) NumPairs() int {
	n := 0
	for _, row := range m.rows {
		n += len(row)
	}
	return n
}

// EvictedPairs returns the cumulative count of dependency pairs the
// producing estimator evicted before this snapshot was taken (0 for exact
// estimation and hand-built matrices).
func (m *Matrix) EvictedPairs() int64 { return m.evictedPairs }

// SetEvictedPairs annotates the matrix with its producer's eviction
// tally. Bounded estimators stamp it at Snapshot time.
func (m *Matrix) SetEvictedPairs(n int64) { m.evictedPairs = n }

// NumRows returns the number of documents with at least one successor.
func (m *Matrix) NumRows() int { return len(m.rows) }

// Clone returns a deep copy (including the eviction annotation).
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix()
	c.evictedPairs = m.evictedPairs
	for i, row := range m.rows {
		nr := make(map[webgraph.DocID]float64, len(row))
		for j, p := range row {
			nr[j] = p
		}
		c.rows[i] = nr
	}
	return c
}

// Prune drops entries below eps.
func (m *Matrix) Prune(eps float64) {
	for i, row := range m.rows {
		for j, p := range row {
			if p < eps {
				delete(row, j)
			}
		}
		if len(row) == 0 {
			delete(m.rows, i)
		}
	}
}

// Closure computes P*: the probability that a chain of dependent requests
// starting at D_i eventually reaches D_j. The paper defines the closure as
// the matrix power P^N, i.e. probabilities summed over paths; a literal sum
// badly overestimates when many alternative paths exist (path events are
// not disjoint — summing 20 paths of 0.1 "proves" certainty), so this
// implementation combines alternatives by noisy-OR instead:
//
//	X(i,j) ← 1 - (1 - p(i,j)) · Π_k (1 - p(i,k)·X(k,j))
//
// which treats the first-step alternatives as independent and is bounded by
// 1 by construction. The iteration is monotone from X = P and stops when no
// entry moves by more than tol or after maxIter rounds (default 32).
// Entries below eps are pruned each round to keep the matrix sparse.
//
// Each iteration's rows are independent (they read only the previous X), so
// the fixpoint is evaluated by a worker pool sized to GOMAXPROCS; per-row
// arithmetic is identical to the serial evaluation, so the result does not
// depend on the worker count.
func (m *Matrix) Closure(eps, tol float64, maxIter int) *Matrix {
	return m.closure(eps, tol, maxIter, runtime.GOMAXPROCS(0))
}

// closure is Closure with an explicit worker count; workers <= 1 runs the
// serial evaluation (benchmarked against the parallel one in bench_test.go).
func (m *Matrix) closure(eps, tol float64, maxIter, workers int) *Matrix {
	if maxIter <= 0 {
		maxIter = 32
	}
	if tol <= 0 {
		tol = 1e-6
	}
	x := m.Clone()
	x.Prune(eps)
	// Snapshot the row set once: m is read-only throughout the iteration.
	ids := make([]webgraph.DocID, 0, len(m.rows))
	for i := range m.rows {
		ids = append(ids, i)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	rows := make([]map[webgraph.DocID]float64, len(ids))
	deltas := make([]float64, len(ids))
	for iter := 0; iter < maxIter; iter++ {
		if workers > 1 {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			// Small chunks keep the pool balanced when row fan-out is
			// skewed (popular pages have far larger rows).
			chunk := len(ids)/(workers*8) + 1
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						lo := int(cursor.Add(int64(chunk))) - chunk
						if lo >= len(ids) {
							return
						}
						hi := lo + chunk
						if hi > len(ids) {
							hi = len(ids)
						}
						for r := lo; r < hi; r++ {
							rows[r], deltas[r] = m.closureRow(ids[r], x, eps)
						}
					}
				}()
			}
			wg.Wait()
		} else {
			for r, id := range ids {
				rows[r], deltas[r] = m.closureRow(id, x, eps)
			}
		}
		next := NewMatrix()
		maxDelta := 0.0
		for r, id := range ids {
			if len(rows[r]) > 0 {
				next.rows[id] = rows[r]
			}
			if deltas[r] > maxDelta {
				maxDelta = deltas[r]
			}
			rows[r] = nil
		}
		x = next
		if maxDelta <= tol {
			break
		}
	}
	// Strip the diagonal from the reported closure: a document is not a
	// speculative candidate for itself.
	for i, row := range x.rows {
		delete(row, i)
		if len(row) == 0 {
			delete(x.rows, i)
		}
	}
	return x
}

// closureRow evaluates one row of the noisy-OR fixpoint against the
// previous iterate x, returning the new row (nil when empty) and the row's
// largest entry increase.
func (m *Matrix) closureRow(i webgraph.DocID, x *Matrix, eps float64) (map[webgraph.DocID]float64, float64) {
	row := m.rows[i]
	// acc[j] accumulates Π (1 - contribution) over the direct edge and
	// every first-step alternative.
	acc := make(map[webgraph.DocID]float64, len(row)*2)
	for k, pik := range row {
		if prev, ok := acc[k]; ok {
			acc[k] = prev * (1 - pik)
		} else {
			acc[k] = 1 - pik
		}
		for j, xkj := range x.rows[k] {
			// Diagonal entries (i→…→i) are kept during the iteration:
			// they are the return paths longer chains pass through.
			c := pik * xkj
			if prev, ok := acc[j]; ok {
				acc[j] = prev * (1 - c)
			} else {
				acc[j] = 1 - c
			}
		}
	}
	out := make(map[webgraph.DocID]float64, len(acc))
	var maxDelta float64
	for j, q := range acc {
		p := 1 - q
		if p <= 0 || p < eps {
			continue
		}
		if p > 1 {
			p = 1
		}
		out[j] = p
		if d := p - x.Get(i, j); d > maxDelta {
			maxDelta = d
		}
	}
	if len(out) == 0 {
		return nil, maxDelta
	}
	return out, maxDelta
}

// PairHistogram bins every stored probability into a histogram over (0, 1],
// the data behind Figure 4.
func (m *Matrix) PairHistogram(bins int) *stats.Histogram {
	h := stats.NewHistogram(0, 1, bins)
	for _, row := range m.rows {
		for _, p := range row {
			h.Add(p)
		}
	}
	return h
}
