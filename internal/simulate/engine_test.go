package simulate

import (
	"slices"
	"testing"

	"specweb/internal/cache"
	"specweb/internal/checkpoint"
	"specweb/internal/core"
	"specweb/internal/markov"
	"specweb/internal/speculation"
	"specweb/internal/webgraph"
)

// TestEngineSelectsLikeSimulator feeds the live engine and the simulator
// the same inputs — one schedule matrix, sizes from one site, the same
// client holdings — and requires the same decisions. The engine gets the
// matrix through its warm-start path and sizes through its SizeFunc; the
// simulator's side is the kernel called as RunWithSchedule calls it, with
// the site's sizes and a client cache as the exclusion.
func TestEngineSelectsLikeSimulator(t *testing.T) {
	site, tr := fixture(t)
	sched, err := BuildSchedule(tr, Baseline(site, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	_, last, _ := tr.Span()
	frozen := sched.At(last)
	var docs []webgraph.DocID
	frozen.RangeRows(func(doc webgraph.DocID, _ []markov.Successor) bool {
		docs = append(docs, doc)
		return true
	})
	if len(docs) < 20 {
		t.Fatalf("schedule matrix has %d rows, want a trained one", len(docs))
	}
	size := siteSize(site)

	// The client holds every third document of the site.
	held := cache.New(cache.Forever, 0)
	digest := map[webgraph.DocID]bool{}
	for i := 0; i < len(site.Docs); i += 3 {
		held.Put(site.Docs[i].ID, site.Docs[i].Size)
		digest[site.Docs[i].ID] = true
	}

	d, want := core.AcquireDecision(), &speculation.Decision{}
	defer core.ReleaseDecision(d)
	// What the comparison covered: selected candidates, digest
	// suppressions, and candidates kept with and without the cap.
	var decisions, suppressions int
	kept := map[bool]int{}
	for _, sel := range []struct {
		tp   float64
		topK int
	}{{0.25, 0}, {0.25, 3}} {
		for _, maxSize := range []int64{0, 8 << 10} {
			cfg := Baseline(site, sel.tp)
			cfg.TopK, cfg.MaxSize = sel.topK, maxSize
			e, err := core.NewEngine(core.DefaultEngineConfig(), size)
			if err != nil {
				t.Fatal(err)
			}
			cs := &checkpoint.Snapshot{
				Knobs: checkpoint.Knobs{Tp: cfg.Tp, Embed: cfg.EmbedThreshold, MaxSize: cfg.MaxSize, TopK: int32(cfg.TopK)},
				Rows:  checkpoint.RowsFromFrozen(frozen),
			}
			if err := e.WarmStart(cs, last); err != nil {
				t.Fatal(err)
			}
			for _, coop := range []bool{false, true} {
				var have map[webgraph.DocID]bool
				var has func(webgraph.DocID) bool
				if coop {
					have, has = digest, held.Has
				}
				for _, doc := range docs {
					for _, mode := range []speculation.Mode{speculation.ModePush, speculation.ModeHints, speculation.ModeHybrid} {
						switch mode {
						case speculation.ModePush:
							e.SpeculateInto(d, doc, have)
						case speculation.ModeHints:
							e.HintsInto(d, doc, have)
						case speculation.ModeHybrid:
							e.SplitInto(d, doc, have)
						}
						cfg.Mode = mode
						k, s := cfg.rule().Decide(want, frozen, doc, size, has)
						kept[maxSize > 0] += k
						suppressions += s
						if !slices.Equal(d.Push, want.Push) || !slices.Equal(d.PushP, want.PushP) ||
							!slices.Equal(d.Hints, want.Hints) {
							t.Fatalf("doc %d, %s, Tp %v TopK %d MaxSize %d digest %v:\nengine    push %v %v hints %v\nsimulator push %v %v hints %v",
								doc, mode, sel.tp, sel.topK, maxSize, coop,
								d.Push, d.PushP, d.Hints, want.Push, want.PushP, want.Hints)
						}
						decisions += len(want.Push) + len(want.Hints)
					}
				}
			}
		}
	}
	if decisions == 0 || suppressions == 0 || kept[true] >= kept[false] {
		t.Fatalf("vacuous comparison: %d selected, %d suppressed, %d kept under the cap vs %d without",
			decisions, suppressions, kept[true], kept[false])
	}
}
