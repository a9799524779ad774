// Package speculation implements the server-side selection rule of
// §3.2–3.4: given a client's request for document D_i, which other
// documents should the server push (or hint) along with it?
//
// The paper's baseline rule pushes every D_j with p*[i,j] ≥ T_p, subject
// to a MaxSize cap on individual documents. Variations studied in §3.4 and
// implemented here: thresholding the raw P instead of its closure (the
// caller's choice of matrix), top-K selection, embedding-only speculation
// (T_p ≈ 1, which the paper notes costs no wasted bandwidth), cooperative
// filtering against the client's cache digest, server-assisted
// prefetching (hints instead of pushes), and the hybrid protocol (push
// near-certain documents, hint the rest).
//
// Rule.Decide is the one implementation of that rule: the trace-driven
// simulator and the live engine both select through it, over the same
// frozen row.
package speculation

import (
	"fmt"

	"specweb/internal/markov"
	"specweb/internal/webgraph"
)

// Mode selects how selected candidates reach the client.
type Mode int

const (
	// ModePush is the paper's speculative service: the server sends the
	// documents themselves.
	ModePush Mode = iota
	// ModeHints is server-assisted prefetching: the server sends a hint
	// list and the client decides what to prefetch.
	ModeHints
	// ModeHybrid pushes candidates at or above the embed threshold and
	// hints the rest.
	ModeHybrid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePush:
		return "push"
	case ModeHints:
		return "hints"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode resolves a mode name — the one switch shared by every binary
// that takes a -mode flag.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "push":
		return ModePush, nil
	case "hints":
		return ModeHints, nil
	case "hybrid":
		return ModeHybrid, nil
	}
	return 0, fmt.Errorf("speculation: unknown mode %q (want push, hints, or hybrid)", name)
}

// Hint is one entry of a server-assisted prefetching list (§3.4): the
// server tells the client what it would have speculated, and the client
// decides what to prefetch.
type Hint struct {
	Doc webgraph.DocID
	P   float64
}

// Decision is a reusable buffer for one request's selection outcome.
// Decide fills it in place, so a caller that keeps (or pools) one makes
// the decision path allocation-free once its arrays have grown.
type Decision struct {
	Push []webgraph.DocID
	// PushP holds, parallel to Push, the estimated probability that
	// drove each push — what the attribution ledger records so waste can
	// later be read against the engine's own confidence.
	PushP []float64
	Hints []Hint
}

// Reset empties the buffers, keeping capacity.
func (d *Decision) Reset() {
	d.Push = d.Push[:0]
	d.PushP = d.PushP[:0]
	d.Hints = d.Hints[:0]
}

// Rule is the selection rule with its knobs.
type Rule struct {
	Mode Mode
	// Tp is the threshold on the matrix row; with TopK > 0 it is the
	// floor under the K most likely successors.
	Tp   float64
	TopK int
	// MaxSize caps individual speculative documents; 0 or negative means
	// no limit (the baseline's MaxSize = ∞).
	MaxSize int64
	// Embed splits ModeHybrid: candidates at or above it are pushed
	// (near-certain documents — embeddings cost no wasted bandwidth), the
	// rest hinted.
	Embed float64
}

// Decide fills d with the outcome for a request of doc over f. Candidates
// are the row's cut — p ≥ Tp, or the TopK most likely with p ≥ Tp — in
// decreasing probability, ties by ascending DocID. With MaxSize > 0, size
// is asked once per candidate of the cut, and a candidate whose size is
// known and above MaxSize is dropped; a document size does not know is
// never dropped. size is not called otherwise and may be nil. doc itself
// is skipped, and so is every candidate have reports the client holds (the
// cooperative digest; have may be nil). have is asked about each
// remaining candidate once, in order, before d is returned.
//
// kept counts the candidates that passed the cut and the size cap (doc
// included), so the row's other RowLen − kept successors are what the
// rule left out; suppressed counts those have removed. Allocation-free
// once d's arrays have grown.
func (r Rule) Decide(d *Decision, f *markov.Frozen, doc webgraph.DocID,
	size func(webgraph.DocID) (int64, bool), have func(webgraph.DocID) bool) (kept, suppressed int) {

	d.Reset()
	var row []markov.Successor
	if r.TopK > 0 {
		row = f.TopKRow(doc, r.TopK, r.Tp)
	} else {
		row = f.ThresholdRow(doc, r.Tp)
	}
	capped := r.MaxSize > 0 && size != nil
	for _, c := range row {
		if capped {
			if s, known := size(c.Doc); known && s > r.MaxSize {
				continue
			}
		}
		kept++
		if c.Doc == doc {
			continue
		}
		if have != nil && have(c.Doc) {
			suppressed++
			continue
		}
		if r.Mode == ModePush || r.Mode == ModeHybrid && c.P >= r.Embed {
			d.Push = append(d.Push, c.Doc)
			d.PushP = append(d.PushP, c.P)
		} else {
			d.Hints = append(d.Hints, Hint{Doc: c.Doc, P: c.P})
		}
	}
	return kept, suppressed
}
