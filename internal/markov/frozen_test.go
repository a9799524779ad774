package markov

import (
	"math"
	"reflect"
	"testing"

	"specweb/internal/webgraph"
)

func frozenFixture() *Matrix {
	m := NewMatrix()
	m.Set(1, 2, 0.9)
	m.Set(1, 3, 0.5)
	m.Set(1, 4, 0.2)
	m.Set(1, 5, 1.0)
	m.Set(7, 1, 0.4)
	return m
}

func TestFreezeMatchesSortedRow(t *testing.T) {
	m := frozenFixture()
	f := Freeze(m)
	if f.NumRows() != m.NumRows() || f.NumPairs() != m.NumPairs() {
		t.Fatalf("shape: frozen %d/%d vs matrix %d/%d",
			f.NumRows(), f.NumPairs(), m.NumRows(), m.NumPairs())
	}
	for _, i := range []webgraph.DocID{1, 7, 99} {
		want := m.SortedRow(i)
		got := f.SortedRow(i)
		if len(got) != len(want) {
			t.Fatalf("row %d: frozen %v vs live %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("row %d[%d]: frozen %v vs live %v", i, k, got[k], want[k])
			}
		}
		if f.RowLen(i) != len(want) {
			t.Errorf("RowLen(%d) = %d, want %d", i, f.RowLen(i), len(want))
		}
	}
	if got := f.Get(1, 3); got != 0.5 {
		t.Errorf("Get(1,3) = %v", got)
	}
	if got := f.Get(2, 3); got != 0 {
		t.Errorf("Get(2,3) = %v, want 0", got)
	}
}

func TestFreezeIsImmutable(t *testing.T) {
	m := frozenFixture()
	f := Freeze(m)
	m.Set(1, 2, 0.1)
	m.Set(1, 9, 0.99)
	if got := f.Get(1, 2); got != 0.9 {
		t.Errorf("snapshot leaked a later mutation: Get(1,2) = %v", got)
	}
	if got := f.RowLen(1); got != 4 {
		t.Errorf("snapshot grew: RowLen(1) = %d", got)
	}
}

func TestFrozenThresholdRow(t *testing.T) {
	f := Freeze(frozenFixture())
	for _, tc := range []struct {
		tp   float64
		want []webgraph.DocID
	}{
		{0, []webgraph.DocID{5, 2, 3, 4}},
		{0.5, []webgraph.DocID{5, 2, 3}},
		{0.51, []webgraph.DocID{5, 2}},
		{1, []webgraph.DocID{5}},
	} {
		got := f.ThresholdRow(1, tc.tp)
		if len(got) != len(tc.want) {
			t.Fatalf("tp=%v: got %v, want %v", tc.tp, got, tc.want)
		}
		for k, d := range tc.want {
			if got[k].Doc != d {
				t.Errorf("tp=%v[%d]: got %d, want %d", tc.tp, k, got[k].Doc, d)
			}
		}
	}
	if got := f.ThresholdRow(404, 0); len(got) != 0 {
		t.Errorf("unknown row: %v", got)
	}
}

// TestFrozenThresholdTieOrdering pins the determinism guarantee: successors
// with equal probability keep ascending-DocID order, and a threshold cut
// landing exactly on the tied value keeps the whole tie group.
func TestFrozenThresholdTieOrdering(t *testing.T) {
	m := NewMatrix()
	m.Set(1, 9, 0.5)
	m.Set(1, 3, 0.5)
	m.Set(1, 6, 0.5)
	m.Set(1, 2, 0.8)
	m.Set(1, 8, 0.1)
	f := Freeze(m)
	got := f.ThresholdRow(1, 0.5)
	want := []webgraph.DocID{2, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("cut at tie value: %v, want docs %v", got, want)
	}
	for k, d := range want {
		if got[k].Doc != d {
			t.Errorf("tie order[%d] = %d, want %d", k, got[k].Doc, d)
		}
	}
	if got := f.TopKRow(1, 2, 0); got[0].Doc != 2 || got[1].Doc != 3 {
		t.Errorf("topK tie order: %v", got)
	}
}

func TestFrozenTopKRow(t *testing.T) {
	f := Freeze(frozenFixture())
	if got := f.TopKRow(1, 2, 0); len(got) != 2 || got[0].Doc != 5 || got[1].Doc != 2 {
		t.Errorf("top2 = %v", got)
	}
	if got := f.TopKRow(1, 10, 0.4); len(got) != 3 {
		t.Errorf("top10 minP 0.4 = %v", got)
	}
	if got := f.TopKRow(1, -1, 0); len(got) != 4 {
		t.Errorf("unbounded topK = %v", got)
	}
}

// TestFrozenSparseIDs forces the binary-search index (IDs too sparse for
// the dense table) and checks lookups still resolve.
func TestFrozenSparseIDs(t *testing.T) {
	m := NewMatrix()
	m.Set(5, 6, 0.5)
	m.Set(1<<30, 7, 0.9)
	f := Freeze(m)
	if f.dense != nil {
		t.Fatal("expected sparse fallback for a 2^30 ID span")
	}
	if got := f.SortedRow(1 << 30); len(got) != 1 || got[0].Doc != 7 {
		t.Errorf("sparse row = %v", got)
	}
	if got := f.SortedRow(5); len(got) != 1 || got[0].Doc != 6 {
		t.Errorf("sparse row = %v", got)
	}
	if got := f.SortedRow(6); got != nil {
		t.Errorf("absent row = %v", got)
	}
}

func TestFreezeEmpty(t *testing.T) {
	f := Freeze(NewMatrix())
	if f.NumRows() != 0 || f.NumPairs() != 0 {
		t.Errorf("empty freeze: %d rows, %d pairs", f.NumRows(), f.NumPairs())
	}
	if got := f.SortedRow(1); got != nil {
		t.Errorf("empty row = %v", got)
	}
	if got := f.ThresholdRow(1, 0); len(got) != 0 {
		t.Errorf("empty threshold = %v", got)
	}
}

// NewFrozen takes the CSR a Freeze would build and rejects offsets that do
// not describe its rows; the row contents' checks are table-tested through
// checkpoint.FrozenFromRows.
func TestNewFrozen(t *testing.T) {
	want := Freeze(frozenFixture())
	got, err := NewFrozen(want.ids, want.off, want.succ)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("NewFrozen of a frozen CSR = %+v, %v; want %+v", got, err, want)
	}
	if empty, err := NewFrozen(nil, nil, nil); err != nil || empty.NumRows() != 0 || empty.SortedRow(1) != nil {
		t.Fatalf("empty snapshot = %+v, %v", empty, err)
	}
	for _, off := range [][]int32{nil, {0, 4}, {1, 4, 5}, {0, 4, 6}, {0, 0, 5}, {0, 5, 5}} {
		if _, err := NewFrozen(want.ids, off, want.succ); err == nil {
			t.Errorf("offsets %v accepted for %d rows of %d", off, len(want.ids), len(want.succ))
		}
	}
}

func TestFrozenRangeRows(t *testing.T) {
	f := Freeze(frozenFixture())
	var visited []webgraph.DocID
	pairs := 0
	f.RangeRows(func(doc webgraph.DocID, row []Successor) bool {
		visited = append(visited, doc)
		pairs += len(row)
		return true
	})
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 7 {
		t.Errorf("visited %v, want [1 7]", visited)
	}
	if pairs != f.NumPairs() {
		t.Errorf("visited %d pairs, want %d", pairs, f.NumPairs())
	}
	// Early stop.
	n := 0
	f.RangeRows(func(webgraph.DocID, []Successor) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d rows", n)
	}
}

// TestClosureParallelMatchesSerial checks the worker pool changes nothing:
// per-row arithmetic is identical, so serial and parallel closures must
// agree entry-for-entry (up to map-iteration rounding jitter, which both
// evaluations share).
func TestClosureParallelMatchesSerial(t *testing.T) {
	m := NewMatrix()
	// A braided graph: chains, a cycle, and fan-out, sized so several
	// iterations run.
	for i := 0; i < 40; i++ {
		m.Set(webgraph.DocID(i), webgraph.DocID(i+1), 0.6)
		m.Set(webgraph.DocID(i), webgraph.DocID(i+2), 0.3)
		if i%5 == 0 {
			m.Set(webgraph.DocID(i+3), webgraph.DocID(i), 0.4)
		}
	}
	serial := m.closure(1e-6, 1e-9, 0, 1)
	parallel := m.closure(1e-6, 1e-9, 0, 8)
	if serial.NumPairs() != parallel.NumPairs() || serial.NumRows() != parallel.NumRows() {
		t.Fatalf("shape mismatch: serial %d/%d parallel %d/%d",
			serial.NumRows(), serial.NumPairs(), parallel.NumRows(), parallel.NumPairs())
	}
	for i := 0; i < 45; i++ {
		id := webgraph.DocID(i)
		for j, p := range serial.rows[id] {
			if q := parallel.Get(id, j); math.Abs(p-q) > 1e-9 {
				t.Errorf("p*[%d,%d]: serial %v parallel %v", id, j, p, q)
			}
		}
	}
}
