package markov

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"specweb/internal/webgraph"
)

// Frozen is an immutable, compiled form of a Matrix: a CSR-like layout with
// one flat successor array, per-row offsets, and a dense document index.
// Rows are pre-sorted by decreasing probability (ties by ascending DocID),
// so the policy operations — sorted-row lookup, threshold cut, top-K — are
// zero-allocation slice and binary-search operations over shared storage.
//
// A Frozen is built once per engine refresh with Freeze and then published
// to concurrent readers; it is never mutated, so it is safe for unlocked
// use from any number of goroutines. Returned row slices alias the frozen
// storage and must not be modified.
type Frozen struct {
	ids  []webgraph.DocID // row documents, ascending
	off  []int32          // row r spans succ[off[r]:off[r+1]]
	succ []Successor      // flat rows, each sorted by (P desc, Doc asc)
	// dense maps a DocID directly to its row index + 1 (0 = no row) when
	// the ID space is compact; otherwise lookups binary-search ids.
	dense []int32
}

// Freeze compiles m into its immutable CSR form. The input matrix is not
// retained; later mutations of m do not affect the snapshot.
func Freeze(m *Matrix) *Frozen {
	f := newFrozen(len(m.rows), m.NumPairs())
	for i := range m.rows {
		f.ids = append(f.ids, i)
	}
	slices.Sort(f.ids)
	for _, i := range f.ids {
		f.appendRow(m.rows[i])
	}
	f.indexDense()
	return f
}

// newFrozen returns an empty snapshot with room for the given rows and
// pairs. Every compiler (Freeze, the estimators' direct freezes) starts
// here, appends ids, off and succ row by row in ascending document order,
// and ends with indexDense; NewFrozen takes rows already laid out so.
func newFrozen(rows, pairs int) *Frozen {
	return &Frozen{
		ids:  make([]webgraph.DocID, 0, rows),
		off:  make([]int32, 1, rows+1),
		succ: make([]Successor, 0, pairs),
	}
}

// appendRow appends one matrix row to succ in frozen order and closes it
// in off.
func (f *Frozen) appendRow(row map[webgraph.DocID]float64) {
	start := len(f.succ)
	for j, p := range row {
		f.succ = append(f.succ, Successor{Doc: j, P: p})
	}
	sortSuccessors(f.succ[start:])
	f.off = append(f.off, int32(len(f.succ)))
}

// closeRow is the row tail both estimators' freezes share. run holds row
// i's successors in frozen order, written into succ's spare capacity just
// past its end. Entries with p ≤ 0 (which sort last) are cut; a non-nil
// scale then damps the row by scale(i) under Matrix.ScaleRow's rules; and
// the row is appended to the snapshot, or dropped when nothing is left.
// The result equals Freeze of the same row first passed through
// Matrix.Set and Matrix.ScaleRow.
func (f *Frozen) closeRow(i webgraph.DocID, run []Successor, scale func(webgraph.DocID) float64) {
	n := len(run)
	for n > 0 && !(run[n-1].P > 0) {
		n--
	}
	if n > 0 && scale != nil {
		n = scaleSuccessors(run[:n], scale(i))
		// Damping can round neighbours to one P, which DocID orders.
		if !slices.IsSortedFunc(run[:n], compareSuccessors) {
			sortSuccessors(run[:n])
		}
	}
	if n == 0 {
		return
	}
	f.succ = f.succ[:len(f.succ)+n]
	f.ids = append(f.ids, i)
	f.off = append(f.off, int32(len(f.succ)))
}

// NewFrozen assembles a snapshot from rows already in frozen form, as a
// checkpoint holds them: row r is document ids[r] with successors
// succ[off[r]:off[r+1]]. ids must ascend strictly, every row must be
// non-empty and in (P desc, Doc asc) order with each P in (0, 1], and off
// must start at 0 and end at len(succ); anything else is an error, never
// a panic, since the rows may come from outside the process. The slices
// are kept, not copied. NewFrozen(nil, nil, nil) is the empty snapshot.
func NewFrozen(ids []webgraph.DocID, off []int32, succ []Successor) (*Frozen, error) {
	if len(ids) == 0 && len(off) == 0 {
		off = []int32{0}
	}
	if len(off) != len(ids)+1 || off[0] != 0 || int(off[len(ids)]) != len(succ) {
		return nil, fmt.Errorf("markov: %d row offsets for %d rows of %d successors", len(off), len(ids), len(succ))
	}
	for r, i := range ids {
		if r > 0 && i <= ids[r-1] {
			return nil, fmt.Errorf("markov: rows not strictly ascending at document %d", i)
		}
		if off[r+1] <= off[r] || int(off[r+1]) > len(succ) {
			return nil, fmt.Errorf("markov: row %d has offsets %d..%d", i, off[r], off[r+1])
		}
		row := succ[off[r]:off[r+1]]
		for k, s := range row {
			if !(s.P > 0 && s.P <= 1) {
				return nil, fmt.Errorf("markov: probability %v for (%d,%d) outside (0,1]", s.P, i, s.Doc)
			}
			if k > 0 && !successorBefore(row[k-1], s) {
				return nil, fmt.Errorf("markov: row %d not in (P desc, Doc asc) order", i)
			}
		}
	}
	f := &Frozen{ids: ids, off: off, succ: succ}
	f.indexDense()
	return f, nil
}

// indexDense builds the direct DocID → row table once ids is complete.
// The dense index trades O(maxID) words for O(1) row lookup; lookups fall
// back to binary search when IDs are sparse enough that the table would
// dominate the snapshot's footprint, or when any is negative.
func (f *Frozen) indexDense() {
	n := len(f.ids)
	if n == 0 || f.ids[0] < 0 || int(f.ids[n-1]) >= 4*n+1024 {
		return
	}
	f.dense = make([]int32, int(f.ids[n-1])+1)
	for r, id := range f.ids {
		f.dense[id] = int32(r) + 1
	}
}

// compareSuccessors orders a row as it is frozen: decreasing probability,
// ties by ascending DocID.
func compareSuccessors(a, b Successor) int {
	switch {
	case a.P > b.P:
		return -1
	case a.P < b.P:
		return 1
	}
	return cmp.Compare(a.Doc, b.Doc)
}

// successorBefore reports whether a comes before b in frozen order.
func successorBefore(a, b Successor) bool {
	return a.P > b.P || a.P == b.P && a.Doc < b.Doc
}

// sortSuccessors puts a row in frozen order. A document appears once per
// row, so the order is total and any sorting algorithm yields the same
// bytes.
func sortSuccessors(row []Successor) { slices.SortFunc(row, compareSuccessors) }

// scaleSuccessors is Matrix.ScaleRow over a row held as a slice: it damps
// row in place by f and returns how many leading entries remain.
func scaleSuccessors(row []Successor, f float64) int {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return len(row)
	}
	n := 0
	for _, s := range row {
		s.P *= f
		if s.P < 1e-9 {
			continue
		}
		row[n] = s
		n++
	}
	return n
}

// rowIndex resolves a document to its row index; ok is false when the
// document has no successors.
func (f *Frozen) rowIndex(i webgraph.DocID) (int, bool) {
	if f.dense != nil {
		if i < 0 || int(i) >= len(f.dense) {
			return 0, false
		}
		r := f.dense[i]
		if r == 0 {
			return 0, false
		}
		return int(r) - 1, true
	}
	r := sort.Search(len(f.ids), func(k int) bool { return f.ids[k] >= i })
	if r == len(f.ids) || f.ids[r] != i {
		return 0, false
	}
	return r, true
}

// SortedRow returns document i's successors in decreasing probability order
// (ties by ascending DocID). The slice aliases the frozen storage: zero
// allocation, read-only.
func (f *Frozen) SortedRow(i webgraph.DocID) []Successor {
	r, ok := f.rowIndex(i)
	if !ok {
		return nil
	}
	return f.succ[f.off[r]:f.off[r+1]]
}

// RowLen returns the number of successors of i without materializing the
// row.
func (f *Frozen) RowLen(i webgraph.DocID) int {
	r, ok := f.rowIndex(i)
	if !ok {
		return 0
	}
	return int(f.off[r+1] - f.off[r])
}

// ThresholdRow returns the prefix of i's sorted row with P ≥ tp, located by
// binary search (the row is sorted by decreasing P, so the candidates form
// a prefix). Equal-probability successors at the cut keep their
// deterministic Doc-ascending order. Zero allocation.
func (f *Frozen) ThresholdRow(i webgraph.DocID, tp float64) []Successor {
	row := f.SortedRow(i)
	cut := sort.Search(len(row), func(k int) bool { return row[k].P < tp })
	return row[:cut]
}

// TopKRow returns up to k successors of i with P ≥ minP. k < 0 means
// unbounded. Zero allocation.
func (f *Frozen) TopKRow(i webgraph.DocID, k int, minP float64) []Successor {
	row := f.SortedRow(i)
	if k >= 0 && len(row) > k {
		row = row[:k]
	}
	cut := sort.Search(len(row), func(j int) bool { return row[j].P < minP })
	return row[:cut]
}

// Get returns p[i,j] in the snapshot (0 when absent). A row is ordered by
// probability, not by successor, so the lookup is a linear scan of it; the
// decision path reads rows through ThresholdRow and TopKRow instead.
func (f *Frozen) Get(i, j webgraph.DocID) float64 {
	for _, s := range f.SortedRow(i) {
		if s.Doc == j {
			return s.P
		}
	}
	return 0
}

// NumRows returns the number of documents with at least one successor.
func (f *Frozen) NumRows() int { return len(f.ids) }

// NumPairs returns the number of (i,j) entries in the snapshot.
func (f *Frozen) NumPairs() int { return len(f.succ) }

// RangeRows visits every row in ascending DocID order. The row slice
// aliases frozen storage and must not be modified; returning false stops
// the iteration.
func (f *Frozen) RangeRows(fn func(doc webgraph.DocID, row []Successor) bool) {
	for r, id := range f.ids {
		if !fn(id, f.succ[f.off[r]:f.off[r+1]]) {
			return
		}
	}
}
