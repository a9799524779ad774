package speculation

import (
	"reflect"
	"testing"

	"specweb/internal/markov"
	"specweb/internal/webgraph"
)

type pair = markov.Successor

// row freezes a matrix holding doc 1's row.
func row(succ ...pair) *markov.Frozen {
	m := markov.NewMatrix()
	for _, s := range succ {
		m.Set(1, s.Doc, s.P)
	}
	return markov.Freeze(m)
}

// decideCase is one row of Rule.Decide's behaviour tables: the rule, the
// request, what is known of sizes and the client's holdings, and the
// expected pushes, hints and kept/suppressed counts the engine's metrics
// read.
type decideCase struct {
	name  string
	f     *markov.Frozen
	doc   webgraph.DocID
	rule  Rule
	sizes map[webgraph.DocID]int64 // nil: no size known
	have  []webgraph.DocID         // nil: no digest

	push           []pair
	hints          []Hint
	kept, suppress int
}

// Fixtures shared by the tables: doc 1's rows.
var (
	base = row(pair{Doc: 2, P: 0.9}, pair{Doc: 3, P: 0.5}, pair{Doc: 4, P: 0.2}, pair{Doc: 5, P: 1.0})
	ties = row(pair{Doc: 9, P: 0.5}, pair{Doc: 3, P: 0.5}, pair{Doc: 6, P: 0.5},
		pair{Doc: 2, P: 0.8}, pair{Doc: 8, P: 0.1})
	withSelf = row(pair{Doc: 1, P: 0.7}, pair{Doc: 2, P: 0.9})
	sizes    = map[webgraph.DocID]int64{2: 100, 3: 10000, 4: 4096}
)

// TestThresholdPolicy pins the T_p cut: successors at or above T_p in
// decreasing P, the whole row at 0, certainties only at 1, nothing for a
// document without a row.
func TestThresholdPolicy(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "tp 0.5 cuts in P order", f: base, doc: 1, rule: Rule{Tp: 0.5},
			push: []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}, {Doc: 3, P: 0.5}}, kept: 3},
		{name: "tp 0 keeps the row", f: base, doc: 1, rule: Rule{Tp: 0},
			push: []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}, {Doc: 3, P: 0.5}, {Doc: 4, P: 0.2}}, kept: 4},
		{name: "tp 1 keeps certainties", f: base, doc: 1, rule: Rule{Tp: 1},
			push: []pair{{Doc: 5, P: 1}}, kept: 1},
		{name: "no row", f: base, doc: 9, rule: Rule{Tp: 0}},
	})
}

// TestTopKPolicy pins top-K selection, with and without its T_p floor.
func TestTopKPolicy(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "top2", f: base, doc: 1, rule: Rule{TopK: 2},
			push: []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}}, kept: 2},
		{name: "top10 floor 0.4", f: base, doc: 1, rule: Rule{TopK: 10, Tp: 0.4},
			push: []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}, {Doc: 3, P: 0.5}}, kept: 3},
	})
}

// TestThresholdTieOrdering pins the cut's determinism: equal-probability
// successors keep ascending-DocID order, a threshold equal to the tied probability keeps the
// whole tie group, and top-K splits a tie by DocID.
func TestThresholdTieOrdering(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "tie at tp keeps the group in doc order", f: ties, doc: 1, rule: Rule{Tp: 0.5},
			push: []pair{{Doc: 2, P: 0.8}, {Doc: 3, P: 0.5}, {Doc: 6, P: 0.5}, {Doc: 9, P: 0.5}}, kept: 4},
		{name: "top3 splits a tie by doc", f: ties, doc: 1, rule: Rule{TopK: 3, Tp: 0.5},
			push: []pair{{Doc: 2, P: 0.8}, {Doc: 3, P: 0.5}, {Doc: 6, P: 0.5}}, kept: 3},
	})
}

// TestSelectorMaxSize pins the MaxSize cap: a known size above it is
// dropped, an unknown size never is, and 0 means no cap.
func TestSelectorMaxSize(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "maxsize drops known big, keeps unknown", f: base, doc: 1,
			rule: Rule{Tp: 0, MaxSize: 4096}, sizes: sizes,
			push: []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}, {Doc: 4, P: 0.2}}, kept: 3},
		{name: "maxsize without sizes drops nothing", f: base, doc: 1,
			rule: Rule{Tp: 0.5, MaxSize: 1},
			push: []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}, {Doc: 3, P: 0.5}}, kept: 3},
		{name: "maxsize 0 is unbounded", f: base, doc: 1, rule: Rule{Tp: 0.5}, sizes: sizes,
			push: []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}, {Doc: 3, P: 0.5}}, kept: 3},
	})
}

// TestSelectorExclude pins cooperative filtering: documents the client's
// digest reports are not pushed and are counted as suppressed.
func TestSelectorExclude(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "digest excludes", f: base, doc: 1, rule: Rule{Tp: 0.5},
			have: []webgraph.DocID{2, 4},
			push: []pair{{Doc: 5, P: 1}, {Doc: 3, P: 0.5}}, kept: 3, suppress: 1},
	})
}

// TestSelectorSkipsSelf pins that the requested document is never
// selected, though it counts as kept.
func TestSelectorSkipsSelf(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "self skipped but kept", f: withSelf, doc: 1, rule: Rule{Tp: 0},
			have: []webgraph.DocID{1}, push: []pair{{Doc: 2, P: 0.9}}, kept: 2},
	})
}

// TestHints pins server-assisted prefetching: hints carry P, under the
// MaxSize cap and the digest.
func TestHints(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "hints carry P", f: base, doc: 1, rule: Rule{Mode: ModeHints, Tp: 0.2}, sizes: sizes,
			hints: []Hint{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}, {Doc: 3, P: 0.5}, {Doc: 4, P: 0.2}}, kept: 4},
		{name: "hints under maxsize and digest", f: base, doc: 1,
			rule: Rule{Mode: ModeHints, Tp: 0, MaxSize: 5000}, sizes: sizes, have: []webgraph.DocID{5},
			hints: []Hint{{Doc: 2, P: 0.9}, {Doc: 4, P: 0.2}}, kept: 3, suppress: 1},
	})
}

// TestSplitHybrid pins the hybrid protocol: candidates at or above the
// embed threshold are pushed, the rest hinted.
func TestSplitHybrid(t *testing.T) {
	runDecide(t, []decideCase{
		{name: "hybrid splits at embed", f: base, doc: 1,
			rule: Rule{Mode: ModeHybrid, Tp: 0.2, Embed: 0.9}, sizes: sizes,
			push:  []pair{{Doc: 5, P: 1}, {Doc: 2, P: 0.9}},
			hints: []Hint{{Doc: 3, P: 0.5}, {Doc: 4, P: 0.2}}, kept: 4},
		{name: "hybrid top1 with digest", f: base, doc: 1,
			rule: Rule{Mode: ModeHybrid, TopK: 1, Embed: 0.95}, have: []webgraph.DocID{5},
			kept: 1, suppress: 1},
	})
}

// runDecide runs each case on a used Decision and checks the outcome and
// that the digest is asked about each candidate at most once, never doc.
func runDecide(t *testing.T, cases []decideCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sizeAsked := 0
			size := func(d webgraph.DocID) (int64, bool) {
				sizeAsked++
				sz, ok := c.sizes[d]
				return sz, ok
			}
			var asked []webgraph.DocID
			var have func(webgraph.DocID) bool
			if c.have != nil {
				have = func(d webgraph.DocID) bool {
					asked = append(asked, d)
					for _, h := range c.have {
						if h == d {
							return true
						}
					}
					return false
				}
			}
			// A used Decision: Decide must start from empty buffers.
			d := &Decision{Push: []webgraph.DocID{42}, PushP: []float64{0.1}, Hints: []Hint{{Doc: 42}}}
			kept, suppressed := c.rule.Decide(d, c.f, c.doc, size, have)

			var push []pair
			for i, doc := range d.Push {
				push = append(push, pair{Doc: doc, P: d.PushP[i]})
			}
			if len(d.PushP) != len(d.Push) {
				t.Errorf("PushP has %d entries for %d pushes", len(d.PushP), len(d.Push))
			}
			if !reflect.DeepEqual(push, c.push) {
				t.Errorf("push = %v, want %v", push, c.push)
			}
			if len(d.Hints) > 0 || len(c.hints) > 0 {
				if !reflect.DeepEqual(d.Hints, c.hints) {
					t.Errorf("hints = %+v, want %+v", d.Hints, c.hints)
				}
			}
			if c.rule.MaxSize <= 0 && sizeAsked != 0 {
				t.Errorf("size asked %d times with no MaxSize", sizeAsked)
			}
			if kept != c.kept || suppressed != c.suppress {
				t.Errorf("kept, suppressed = %d, %d, want %d, %d", kept, suppressed, c.kept, c.suppress)
			}
			seen := map[webgraph.DocID]bool{}
			for _, a := range asked {
				if a == c.doc || seen[a] {
					t.Errorf("digest asked about %d (asked %v)", a, asked)
				}
				seen[a] = true
			}
		})
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModePush, ModeHints, ModeHybrid} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("unknown mode accepted")
	}
}
