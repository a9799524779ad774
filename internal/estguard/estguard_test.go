package estguard

import (
	"reflect"
	"testing"
	"time"

	"specweb/internal/markov"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

var t0 = time.Date(1995, time.January, 1, 0, 0, 0, 0, time.UTC)

// window appends n requests for client c starting at start: document IDs
// from docs (cycled), consecutive requests separated by gap(i) seconds.
func window(tr *trace.Trace, c trace.ClientID, start time.Time, n int,
	docs []webgraph.DocID, gap func(i int) float64) {
	at := start
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Time:   at,
			Client: c,
			Doc:    docs[i%len(docs)],
			Status: 200,
		})
		at = at.Add(time.Duration(gap(i) * float64(time.Second)))
	}
}

// visits counts the requests in runs.
func visits(runs []trace.Run) int {
	n := 0
	for _, r := range runs {
		n += len(r.Visits)
	}
	return n
}

func seqDocs(n int) []webgraph.DocID {
	out := make([]webgraph.DocID, n)
	for i := range out {
		out[i] = webgraph.DocID(i)
	}
	return out
}

// humanGaps look like think times: a heavy-tailed mix, CV well above any
// metronome threshold.
func humanGaps(i int) float64 {
	switch i % 5 {
	case 0:
		return 0.3
	case 1:
		return 2.1
	case 2:
		return 45
	case 3:
		return 0.7
	default:
		return 130
	}
}

func TestClassification(t *testing.T) {
	g := New(Config{Seed: 1})
	flush := &trace.Trace{}
	// Crawler: every document distinct, metronomic 0.5 s gaps.
	window(flush, "crawler.bot", t0, 40, seqDocs(40), func(int) float64 { return 0.5 })
	// Scanner: one pass over a large doc range, 1 s gaps.
	window(flush, "scan.probe", t0, 200, seqDocs(200), func(int) float64 { return 1.0 })
	// Bot: three docs on a fixed 2 s interval — timing alone convicts.
	window(flush, "poll.bot", t0, 30, seqDocs(3), func(int) float64 { return 2.0 })
	// Human: varied think times.
	window(flush, "alice", t0, 30, seqDocs(12), humanGaps)
	// Sparse client: below the evidence floor, never quarantined even
	// with robotic timing.
	window(flush, "newbie", t0, 10, seqDocs(10), func(int) float64 { return 0.5 })
	flush.SortByTime()

	clean, quar := g.Partition(flush.Runs())

	want := map[trace.ClientID]string{
		"crawler.bot": ReasonCrawler,
		"scan.probe":  ReasonScanner,
		"poll.bot":    ReasonBot,
		"alice":       "",
		"newbie":      "",
	}
	for c, reason := range want {
		st, got := g.Status(c)
		if reason == "" {
			if st != Human {
				t.Errorf("%s: status %v, want human", c, st)
			}
		} else if st != Quarantined || got != reason {
			t.Errorf("%s: status %v reason %q, want quarantined %q", c, st, got, reason)
		}
	}
	if visits(clean)+visits(quar) != flush.Len() {
		t.Errorf("partition lost requests: %d + %d != %d", visits(clean), visits(quar), flush.Len())
	}
	if visits(quar) != 40+200+30 {
		t.Errorf("quarantined %d requests, want %d", visits(quar), 40+200+30)
	}
	for _, part := range [][]trace.Run{clean, quar} {
		for i := 1; i < len(part); i++ {
			if part[i].Client <= part[i-1].Client {
				t.Fatal("partition broke the runs' client order")
			}
		}
	}
	s := g.StatsSnapshot()
	if s.QuarantinedClients != 3 || s.Demotions != 3 {
		t.Errorf("stats = %+v, want 3 quarantined / 3 demotions", s)
	}
	if s.Reasons[ReasonCrawler] != 40 || s.Reasons[ReasonScanner] != 200 || s.Reasons[ReasonBot] != 30 {
		t.Errorf("reason drops = %v", s.Reasons)
	}
}

func TestPromotionAfterCleanWindows(t *testing.T) {
	g := New(Config{Seed: 1, PromoteAfter: 2})
	day := 24 * time.Hour

	flush := &trace.Trace{}
	window(flush, "c", t0, 40, seqDocs(40), func(int) float64 { return 0.5 })
	g.Partition(flush.Runs())
	if st, _ := g.Status("c"); st != Quarantined {
		t.Fatal("client not quarantined after crawler window")
	}

	for i := 1; i <= 2; i++ {
		flush = &trace.Trace{}
		window(flush, "c", t0.Add(time.Duration(i)*day), 30, seqDocs(12), humanGaps)
		g.Partition(flush.Runs())
		st, _ := g.Status("c")
		if i < 2 && st != Quarantined {
			t.Fatalf("promoted after %d clean window(s), want %d", i, 2)
		}
		if i == 2 && st != Human {
			t.Fatal("not promoted after PromoteAfter clean windows")
		}
	}
	s := g.StatsSnapshot()
	if s.Promotions != 1 || s.QuarantinedClients != 0 {
		t.Errorf("stats = %+v, want 1 promotion, 0 quarantined", s)
	}
}

// TestPartitionDeterminism feeds the identical flush to two guards and
// requires identical decisions — and that requests during the quarantined
// window route by the post-classification status, independent of the
// client's position in the flush.
func TestPartitionDeterminism(t *testing.T) {
	build := func() (*Guard, *trace.Trace) {
		flush := &trace.Trace{}
		window(flush, "crawler.bot", t0, 40, seqDocs(40), func(int) float64 { return 0.5 })
		window(flush, "alice", t0.Add(17*time.Millisecond), 30, seqDocs(12), humanGaps)
		window(flush, "bob", t0.Add(41*time.Millisecond), 30, seqDocs(9), humanGaps)
		flush.SortByTime()
		return New(Config{Seed: 42}), flush
	}
	g1, f1 := build()
	g2, f2 := build()
	c1, q1 := g1.Partition(f1.Runs())
	c2, q2 := g2.Partition(f2.Runs())
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(q1, q2) {
		t.Fatalf("partitions diverged: (%d,%d) vs (%d,%d)", visits(c1), visits(q1), visits(c2), visits(q2))
	}
	if s1, s2 := g1.StatsSnapshot(), g2.StatsSnapshot(); s1.QuarantinedRequests != s2.QuarantinedRequests {
		t.Errorf("stats diverged: %+v vs %+v", s1, s2)
	}
}

func TestDriftScore(t *testing.T) {
	g := New(Config{Seed: 1})

	flush := &trace.Trace{}
	window(flush, "alice", t0, 100, seqDocs(10), humanGaps)
	g.Partition(flush.Runs()) // profile: uniform over docs 0..9

	if got := g.DriftScore(); got != 0 {
		t.Errorf("score with no live samples = %v, want 0", got)
	}
	// Same distribution live: low divergence.
	for i := 0; i < 100; i++ {
		g.NoteRequest(webgraph.DocID(i % 10))
	}
	if got := g.DriftScore(); got > 0.05 {
		t.Errorf("score on matching traffic = %v, want ~0", got)
	}
	// Flash crowd: the live window shifts to disjoint documents.
	for i := 0; i < 400; i++ {
		g.NoteRequest(webgraph.DocID(100 + i%3))
	}
	got := g.DriftScore()
	if got <= g.DriftThreshold() {
		t.Errorf("score after flash crowd = %v, want > threshold %v", got, g.DriftThreshold())
	}
	if got > 2 {
		t.Errorf("score %v outside [0,2]", got)
	}
	// A refresh rebuilds the profile and resets the live counters.
	flush2 := &trace.Trace{}
	window(flush2, "alice", t0.Add(24*time.Hour), 100, []webgraph.DocID{100, 101, 102}, humanGaps)
	g.Partition(flush2.Runs())
	if got := g.DriftScore(); got != 0 {
		t.Errorf("score after refresh = %v, want 0 (counters reset)", got)
	}
}

func TestTrust(t *testing.T) {
	if got := Trust(0, 0, 8); got != 0 {
		t.Errorf("Trust(0,0,8) = %v, want 0", got)
	}
	if got := Trust(8, 0, 8); got != 0.5 {
		t.Errorf("Trust(8,0,8) = %v, want 0.5 (half-saturation)", got)
	}
	if got := Trust(8, 8, 8); got != 0.25 {
		t.Errorf("Trust(8,8,8) = %v, want 0.25", got)
	}
	// Monotonic: more support raises trust, more quarantined mass lowers it.
	if Trust(100, 0, 8) <= Trust(10, 0, 8) {
		t.Error("trust not increasing in occ")
	}
	if Trust(10, 50, 8) >= Trust(10, 5, 8) {
		t.Error("trust not decreasing in quarOcc")
	}
	if got := Trust(1e9, 0, 8); got > 1 {
		t.Errorf("trust %v exceeds 1", got)
	}
}

func frozenWithP(p float64) *markov.Frozen {
	m := markov.NewMatrix()
	for i := 0; i < 4; i++ {
		m.Set(webgraph.DocID(i), webgraph.DocID(i+100), p)
	}
	return markov.Freeze(m)
}

func TestAcceptSnapshot(t *testing.T) {
	g := New(Config{Seed: 1, MinFeedback: 10, MaxConsecutiveRejects: 3})
	const tp = 0.25
	good := frozenWithP(0.9)
	bad := frozenWithP(0.3)

	if !g.AcceptSnapshot(good, tp, Feedback{}) {
		t.Fatal("first snapshot must be accepted")
	}
	// Uncalibrated bound: (1-0.5) * 0.9 = 0.45 > 0.3 — reject, last-good kept.
	if g.AcceptSnapshot(bad, tp, Feedback{}) {
		t.Fatal("regressing snapshot accepted without feedback")
	}
	if s := g.StatsSnapshot(); s.RejectedSnapshots != 1 {
		t.Fatalf("rejected = %d, want 1", s.RejectedSnapshots)
	}
	// Calibration: the ledger says the last snapshot's 0.9 confidence
	// realized almost nothing (1 of 20 consumed), so the bound collapses
	// to its floor and the candidate passes.
	if !g.AcceptSnapshot(bad, tp, Feedback{Delivered: 20, Consumed: 1, Wasted: 19}) {
		t.Fatal("calibrated bound should loosen after the ledger reports waste")
	}

	// Force-accept: an empty snapshot scores 0 and is rejected until the
	// consecutive-reject cap trips — decay must eventually flush through.
	empty := markov.Freeze(markov.NewMatrix())
	fb := Feedback{Delivered: 20, Consumed: 1, Wasted: 19} // unchanged: delta 0, r = 1
	if g.AcceptSnapshot(empty, tp, fb) || g.AcceptSnapshot(empty, tp, fb) {
		t.Fatal("empty snapshot accepted before the reject cap")
	}
	if !g.AcceptSnapshot(empty, tp, fb) {
		t.Fatal("snapshot not force-accepted at MaxConsecutiveRejects")
	}
	s := g.StatsSnapshot()
	if s.ForcedAccepts != 1 {
		t.Errorf("forced accepts = %d, want 1", s.ForcedAccepts)
	}
	if s.RejectedSnapshots != 3 {
		t.Errorf("rejected = %d, want 3", s.RejectedSnapshots)
	}
}

func TestSnapshotConfidence(t *testing.T) {
	if got := SnapshotConfidence(frozenWithP(0.9), 0.25); got != 0.9 {
		t.Errorf("confidence = %v, want 0.9", got)
	}
	// Entries below threshold do not count: they would never be speculated.
	if got := SnapshotConfidence(frozenWithP(0.1), 0.25); got != 0 {
		t.Errorf("confidence of below-threshold snapshot = %v, want 0", got)
	}
	if got := SnapshotConfidence(markov.Freeze(markov.NewMatrix()), 0.25); got != 0 {
		t.Errorf("confidence of empty snapshot = %v, want 0", got)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	g1 := New(Config{Seed: 7})
	g2 := New(Config{Seed: 7})
	g3 := New(Config{Seed: 8})
	varies := false
	for _, c := range []trace.ClientID{"a", "b", "crawler.bot", "x.y.z"} {
		j1, j2, j3 := g1.jitter(c), g2.jitter(c), g3.jitter(c)
		if j1 != j2 {
			t.Errorf("jitter(%q) not deterministic: %v vs %v", c, j1, j2)
		}
		if j1 < 0.95 || j1 >= 1.05 {
			t.Errorf("jitter(%q) = %v outside [0.95, 1.05)", c, j1)
		}
		if j1 != j3 {
			varies = true
		}
	}
	if !varies {
		t.Error("jitter ignores the seed")
	}
}
