package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"specweb/internal/costmodel"
	"specweb/internal/popularity"
	"specweb/internal/speculation"
)

var (
	wlOnce sync.Once
	wl     *Workload
	wlErr  error
)

func smallWorkload(t *testing.T) *Workload {
	t.Helper()
	wlOnce.Do(func() {
		wl, wlErr = Build(SmallWorkload())
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

func TestBuildDeterminism(t *testing.T) {
	a, err := Build(SmallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(SmallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.Len() != b.Trace.Len() || a.Site.TotalBytes() != b.Site.TotalBytes() {
		t.Error("identical configs produced different workloads")
	}
	c := SmallWorkload()
	c.Seed = 7
	cw, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Trace.Len() == a.Trace.Len() && cw.Site.TotalBytes() == a.Site.TotalBytes() {
		t.Error("different seeds produced identical workloads")
	}
}

func TestFigure1(t *testing.T) {
	w := smallWorkload(t)
	res, err := Figure1(w, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("only %d blocks", len(res.Rows))
	}
	// Blocks are ranked: cumulative coverage is monotone and ends at 1.
	prev := 0.0
	for _, r := range res.Rows {
		if r.CumReqFrac < prev-1e-12 {
			t.Error("cumulative coverage decreased")
		}
		prev = r.CumReqFrac
	}
	last := res.Rows[len(res.Rows)-1]
	if last.CumReqFrac < 0.999 {
		t.Errorf("final coverage %v, want 1", last.CumReqFrac)
	}
	// Heavy tail: the first block covers far more than its byte share.
	if res.Rows[0].CumReqFrac < 0.1 {
		t.Errorf("first block covers only %.1f%%", res.Rows[0].CumReqFrac*100)
	}
	if res.Top10PctCoverage <= res.Rows[0].ReqFrac/2 {
		t.Errorf("top-10%% coverage %v implausible", res.Top10PctCoverage)
	}
	if res.Lambda <= 0 {
		t.Error("lambda fit missing")
	}
	if res.AccessedBytes <= 0 || res.AccessedBytes > res.SiteBytes {
		t.Errorf("accessed %d vs site %d", res.AccessedBytes, res.SiteBytes)
	}
}

func TestClassification(t *testing.T) {
	w := smallWorkload(t)
	res, err := Classification(w)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != res.DocsAccessed {
		t.Errorf("class counts sum %d != docs %d", total, res.DocsAccessed)
	}
	if res.Counts[popularity.LocallyPopular] == 0 ||
		res.Counts[popularity.GloballyPopular] == 0 {
		t.Errorf("degenerate classification: %v", res.Counts)
	}
	// §2's ordering: locally popular documents update most often.
	lr := res.MeanUpdateRate[popularity.LocallyPopular]
	if lr <= res.MeanUpdateRate[popularity.RemotelyPopular] &&
		lr <= res.MeanUpdateRate[popularity.GloballyPopular] {
		t.Errorf("update rates: %v, want local highest", res.MeanUpdateRate)
	}
}

func TestFigure2Shape(t *testing.T) {
	// A small cluster keeps the "lax" budget genuinely lax relative to
	// n/λ, which is the regime where eq. 7 favors uniform-access servers.
	pts, err := Figure2(3, 6.247e-7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("only %d points", len(pts))
	}
	// Lax budget: allocation decreases with λ_j (more uniform servers get
	// more), at least across the sampled range endpoints.
	first, last := pts[0], pts[len(pts)-1]
	if first.LambdaRatio >= last.LambdaRatio {
		t.Fatal("ratios not increasing")
	}
	if first.Lax <= last.Lax {
		t.Errorf("lax allocation should favor small λ: %v at %.2f vs %v at %.2f",
			first.Lax, first.LambdaRatio, last.Lax, last.LambdaRatio)
	}
	// Tight budget: interior maximum — the peak allocation is neither at
	// the smallest nor the largest λ ratio.
	maxI := 0
	for i, p := range pts {
		if p.Tight > pts[maxI].Tight {
			maxI = i
		}
	}
	if maxI == 0 || maxI == len(pts)-1 {
		t.Errorf("tight budget should peak at intermediate λ, peaked at index %d/%d", maxI, len(pts)-1)
	}
	// Budgets are respected: allocations non-negative.
	for _, p := range pts {
		if p.Tight < 0 || p.Lax < 0 {
			t.Errorf("negative allocation: %+v", p)
		}
	}
}

func TestSizingPaperNumbers(t *testing.T) {
	rows, err := Sizing(0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Servers != 10 || rows[0].HitFraction != 0.90 {
		t.Fatalf("unexpected first row %+v", rows[0])
	}
	if rows[0].B0 < 35e6 || rows[0].B0 > 38e6 {
		t.Errorf("10 servers @ 90%% needs %.1f MB, paper says ≈36 MB", rows[0].B0/1e6)
	}
	if rows[1].B0 < 480e6 || rows[1].B0 > 530e6 {
		t.Errorf("100 servers @ 96%% needs %.1f MB, paper says ≈500 MB", rows[1].B0/1e6)
	}
}

func TestFigure3Shape(t *testing.T) {
	w := smallWorkload(t)
	curves, err := Figure3(w, []float64{0.10, 0.04}, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		prev := -1.0
		for _, p := range c.Points {
			if p.ReductionPct < prev-1e-9 {
				t.Errorf("fraction %v: reduction decreased with more proxies", c.Fraction)
			}
			prev = p.ReductionPct
		}
	}
	// The 10% curve dominates the 4% curve at every proxy count.
	for i := range curves[0].Points {
		if curves[0].Points[i].ReductionPct < curves[1].Points[i].ReductionPct-1e-9 {
			t.Errorf("at %d proxies, 10%% (%.1f) < 4%% (%.1f)",
				curves[0].Points[i].Proxies,
				curves[0].Points[i].ReductionPct, curves[1].Points[i].ReductionPct)
		}
	}
}

func TestFigure4(t *testing.T) {
	w := smallWorkload(t)
	res, err := Figure4(w, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs < 50 {
		t.Fatalf("only %d pairs", res.Pairs)
	}
	if res.EmbeddingMass <= 0 {
		t.Error("no mass in the p≈1 bin (embedding peak missing)")
	}
	if res.Histogram.Total() != int64(res.Pairs) {
		t.Error("histogram total disagrees with pair count")
	}
}

func TestFigure5And6AndHeadline(t *testing.T) {
	w := smallWorkload(t)
	pts, err := Figure5(w, []float64{0.95, 0.5, 0.25, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	// Traffic monotone in speculation aggressiveness.
	for i := 1; i < len(pts); i++ {
		if pts[i].Ratios.Bandwidth < pts[i-1].Ratios.Bandwidth-1e-9 {
			t.Error("bandwidth not monotone across thresholds")
		}
	}
	// Figure 6 reordering sorts by traffic.
	f6 := Figure6(pts)
	for i := 1; i < len(f6); i++ {
		if f6[i].Ratios.TrafficIncreasePct() < f6[i-1].Ratios.TrafficIncreasePct() {
			t.Error("figure 6 not sorted by traffic")
		}
	}
	rows, err := Headline(pts, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("headline rows = %d", len(rows))
	}
	// More budget buys at least as much load reduction.
	if rows[1].LoadReduction < rows[0].LoadReduction-1e-9 {
		t.Errorf("10%% budget (%.1f%%) worse than 5%% (%.1f%%)",
			rows[1].LoadReduction, rows[0].LoadReduction)
	}
	if _, err := Headline(pts[:1], nil); err == nil {
		t.Error("single-point headline accepted")
	}
}

func TestStability(t *testing.T) {
	w := smallWorkload(t)
	rows, err := Stability(w, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byDP := map[[2]int]StabilityRow{}
	for _, r := range rows {
		byDP[[2]int{r.UpdateCycleDays, r.HistoryDays}] = r
	}
	fresh := byDP[[2]int{1, 60}]
	stale := byDP[[2]int{60, 60}]
	// §3.4: longer update cycles degrade (or at best match) performance.
	if stale.Ratios.ServerLoadReductionPct() > fresh.Ratios.ServerLoadReductionPct()+1e-9 {
		t.Errorf("D=60 (%.2f%%) beat D=1 (%.2f%%)",
			stale.Ratios.ServerLoadReductionPct(), fresh.Ratios.ServerLoadReductionPct())
	}
}

func TestMaxSizeSweepAndBest(t *testing.T) {
	w := smallWorkload(t)
	rows, err := MaxSizeSweep(w, []float64{0.25, 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	// At equal Tp, tighter caps cannot use more traffic than no cap.
	uncapped := map[float64]float64{}
	for _, r := range rows {
		if r.MaxSize == 0 {
			uncapped[r.Tp] = r.Ratios.Bandwidth
		}
	}
	for _, r := range rows {
		if r.MaxSize == 0 {
			continue
		}
		if base, ok := uncapped[r.Tp]; ok && r.Ratios.Bandwidth > base+0.02 {
			t.Errorf("MaxSize %d at Tp %.2f used more traffic than no cap", r.MaxSize, r.Tp)
		}
	}
	best, err := BestMaxSize(rows, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if best.Ratios.ServerLoadReductionPct() <= 0 {
		t.Error("best row has no gains")
	}
	if _, err := BestMaxSize(rows, -10); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestCachingTable(t *testing.T) {
	w := smallWorkload(t)
	rows, err := CachingTable(w, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Name == "no cache" {
			// With nowhere to hold pushed documents, speculation cannot
			// change the miss stream; it only wastes bandwidth.
			if r.Ratios.ServerLoad < 0.999 || r.Ratios.Bandwidth < 1 {
				t.Errorf("no-cache row should be gain-free: %+v", r.Ratios)
			}
			continue
		}
		if r.Ratios.ServerLoad >= 1 {
			t.Errorf("%s: no load gain (%v) — §3.4 says gains survive without long-term caches",
				r.Name, r.Ratios.ServerLoad)
		}
	}
}

func TestCooperativeTable(t *testing.T) {
	w := smallWorkload(t)
	rows, err := Cooperative(w, []float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Cooperative.Bandwidth > r.Plain.Bandwidth+1e-9 {
		t.Errorf("cooperative used more bandwidth: %v vs %v",
			r.Cooperative.Bandwidth, r.Plain.Bandwidth)
	}
}

func TestPrefetchTable(t *testing.T) {
	w := smallWorkload(t)
	rows, err := PrefetchTable(w, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[speculation.Mode]PrefetchRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	if byMode[speculation.ModePush].SpeculatedDocs == 0 {
		t.Error("push mode pushed nothing")
	}
	if byMode[speculation.ModeHints].PrefetchedDocs == 0 {
		t.Error("hints mode prefetched nothing")
	}
	if byMode[speculation.ModeHybrid].SpeculatedDocs == 0 || byMode[speculation.ModeHybrid].PrefetchedDocs == 0 {
		t.Error("hybrid should both push and hint")
	}
}

func TestClosureAblation(t *testing.T) {
	w := smallWorkload(t)
	rows, err := ClosureAblation(w, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratios.ServerLoad >= 1 {
			t.Errorf("%s produced no gains", r.Name)
		}
	}
}

func TestCompareAllocation(t *testing.T) {
	w := smallWorkload(t)
	cmp, err := CompareAllocation(w, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.AlphaGreedy <= 0 || cmp.AlphaGreedy > 1 {
		t.Errorf("greedy alpha %v", cmp.AlphaGreedy)
	}
	// Greedy is the optimum; the model can only do as well or worse.
	if cmp.ModelShortfall < -0.02 {
		t.Errorf("model beat greedy by %v — greedy should be optimal", -cmp.ModelShortfall)
	}
	if _, err := CompareAllocation(w, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, []string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"wide-cell", "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "---") {
		t.Error("no separator row")
	}
	if !strings.HasPrefix(lines[2], "1 ") {
		t.Errorf("row misaligned: %q", lines[2])
	}
}

func TestSeriesRender(t *testing.T) {
	var buf bytes.Buffer
	if err := Series(&buf, "t", []float64{1, 2}, []float64{5, 10}, "x", "y", 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "####################") {
		t.Errorf("max bar missing:\n%s", buf.String())
	}
	if err := Series(&buf, "t", []float64{1}, nil, "x", "y", 20); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2 << 10: "2.0KB",
		3 << 20: "3.0MB",
		5 << 30: "5.0GB",
	}
	for in, want := range cases {
		if got := FmtBytes(in); got != want {
			t.Errorf("FmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestWorkloadConfigs(t *testing.T) {
	d := DefaultWorkload()
	if d.Days != 90 || d.SessionsPerDay != 220 {
		t.Errorf("default workload %+v, want the paper's ≈90-day scale", d)
	}
	m := MediaWorkload()
	if m.Profile.Name != "media" {
		t.Errorf("media workload profile %q", m.Profile.Name)
	}
	if len(DefaultTps()) < 8 {
		t.Error("default sweep too sparse")
	}
}

func TestMediaWorkloadBuilds(t *testing.T) {
	cfg := MediaWorkload()
	cfg.Days = 4
	cfg.SessionsPerDay = 25
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Trace.Len() < 100 {
		t.Errorf("media trace only %d requests", w.Trace.Len())
	}
	// Media objects dominate bytes: mean transfer far above a department
	// page.
	if w.Trace.TotalBytes()/int64(w.Trace.Len()) < 20<<10 {
		t.Errorf("mean transfer %d bytes; media profile should be heavy",
			w.Trace.TotalBytes()/int64(w.Trace.Len()))
	}
}

func TestFigure3Specialized(t *testing.T) {
	w := smallWorkload(t)
	pts, err := Figure3Specialized(w, 0.10, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Proxies != 4 {
		t.Fatalf("points = %+v", pts)
	}
	uni, err := Figure3(w, []float64{0.10}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].ReductionPct < uni[0].Points[0].ReductionPct-2 {
		t.Errorf("specialized (%.1f%%) clearly below uniform (%.1f%%)",
			pts[0].ReductionPct, uni[0].Points[0].ReductionPct)
	}
}

func TestBuildErrors(t *testing.T) {
	bad := SmallWorkload()
	bad.Profile.Pages = 0
	if _, err := Build(bad); err == nil {
		t.Error("bad profile accepted")
	}
	bad = SmallWorkload()
	bad.Net.Backbones = 0
	if _, err := Build(bad); err == nil {
		t.Error("bad topology accepted")
	}
	bad = SmallWorkload()
	bad.Days = 0
	if _, err := Build(bad); err == nil {
		t.Error("bad trace config accepted")
	}
}

func TestHeadlineInterpolationEdges(t *testing.T) {
	pts := []SweepPoint{
		{Tp: 0.9, Ratios: ratiosWithTraffic(2)},
		{Tp: 0.1, Ratios: ratiosWithTraffic(40)},
	}
	rows, err := Headline(pts, []float64{1, 20, 100})
	if err != nil {
		t.Fatal(err)
	}
	// Below range: clamps to the most conservative point.
	if rows[0].Tp != 0.9 {
		t.Errorf("below-range budget got Tp %v", rows[0].Tp)
	}
	// Inside range: interpolated between the two.
	if rows[1].Tp >= 0.9 || rows[1].Tp <= 0.1 {
		t.Errorf("interior budget got Tp %v", rows[1].Tp)
	}
	// Above range: clamps to the most aggressive point.
	if rows[2].Tp != 0.1 {
		t.Errorf("above-range budget got Tp %v", rows[2].Tp)
	}
}

func ratiosWithTraffic(pct float64) costmodel.Ratios {
	return costmodel.Ratios{
		Bandwidth:   1 + pct/100,
		ServerLoad:  1 - pct/200,
		ServiceTime: 1 - pct/300,
		MissRate:    1 - pct/400,
	}
}
