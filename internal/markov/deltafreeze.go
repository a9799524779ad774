package markov

import (
	"slices"

	"specweb/internal/webgraph"
)

// DeltaFreeze compiles m into its immutable CSR form by patching only the
// dirty rows into prev, copying every other row's already-sorted
// successors verbatim. dirty must be a superset of the rows on which m
// differs from the matrix prev was frozen from (a bounded estimator's
// DirtyDocs provides exactly that); under this contract the result is
// byte-identical to Freeze(m) — Freeze's output is fully determined by
// the matrix content (ids ascending, each row sorted by the total order
// (P desc, Doc asc), dense-index threshold a pure function of ids) — so
// delta-freezing never perturbs the determinism the conformance matrix
// and checkpoint codec pin. The win is skipping the per-row sort and the
// map iteration for the (typically dominant) clean rows.
//
// DeltaFreeze falls back to a full Freeze when prev is nil.
func DeltaFreeze(prev *Frozen, m *Matrix, dirty []webgraph.DocID) *Frozen {
	if prev == nil {
		return Freeze(m)
	}
	dirtySet := make(map[webgraph.DocID]struct{}, len(dirty))
	for _, d := range dirty {
		dirtySet[d] = struct{}{}
	}

	f := newFrozen(len(m.rows), m.NumPairs())
	for i := range m.rows {
		f.ids = append(f.ids, i)
	}
	slices.Sort(f.ids)

	// Walk prev's rows in lockstep with the new ascending id list so clean
	// rows resolve to their previous storage without per-row lookups.
	prevPos := 0
	for _, i := range f.ids {
		for prevPos < len(prev.ids) && prev.ids[prevPos] < i {
			prevPos++
		}
		_, isDirty := dirtySet[i]
		if !isDirty && prevPos < len(prev.ids) && prev.ids[prevPos] == i {
			f.succ = append(f.succ, prev.succ[prev.off[prevPos]:prev.off[prevPos+1]]...)
			f.off = append(f.off, int32(len(f.succ)))
			continue
		}
		f.appendRow(m.rows[i])
	}
	f.indexDense()
	return f
}
