package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"specweb/internal/costmodel"
	"specweb/internal/simulate"
	"specweb/internal/speculation"
)

// The goldens below pin the §3.4 tables on the small workload at full
// float precision, so every branch of the speculative selection — hints,
// the hybrid split, cooperative exclusion, the MaxSize cap and top-K — is
// held to exact bytes, not only to the shape tests in experiments_test.go.

// fmtRatios renders r with the shortest representation that round-trips,
// so any change to a count or a latency sum moves the golden.
func fmtRatios(r costmodel.Ratios) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("bw=%s load=%s svc=%s miss=%s",
		g(r.Bandwidth), g(r.ServerLoad), g(r.ServiceTime), g(r.MissRate))
}

func TestGoldenStability(t *testing.T) {
	rows, err := Stability(smallWorkload(t), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&buf, "D=%d D'=%d %s\n", r.UpdateCycleDays, r.HistoryDays, fmtRatios(r.Ratios))
	}
	checkGolden(t, "stability.txt", buf.Bytes())
}

func TestGoldenMaxSizeSweep(t *testing.T) {
	rows, err := MaxSizeSweep(smallWorkload(t), []float64{0.25, 0.1}, []int64{0, 15 << 10, 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&buf, "max=%d tp=%g %s\n", r.MaxSize, r.Tp, fmtRatios(r.Ratios))
	}
	checkGolden(t, "maxsize.txt", buf.Bytes())
}

func TestGoldenCachingTable(t *testing.T) {
	rows, err := CachingTable(smallWorkload(t), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&buf, "%s: %s\n", r.Name, fmtRatios(r.Ratios))
	}
	checkGolden(t, "caching.txt", buf.Bytes())
}

func TestGoldenCooperativeTable(t *testing.T) {
	rows, err := Cooperative(smallWorkload(t), []float64{0.25, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&buf, "tp=%g plain %s\n", r.Tp, fmtRatios(r.Plain))
		fmt.Fprintf(&buf, "tp=%g coop  %s\n", r.Tp, fmtRatios(r.Cooperative))
	}
	checkGolden(t, "cooperative.txt", buf.Bytes())
}

func TestGoldenPrefetchTable(t *testing.T) {
	var buf bytes.Buffer
	for _, tp := range []float64{0.25, 0.1} {
		rows, err := PrefetchTable(smallWorkload(t), tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			fmt.Fprintf(&buf, "tp=%g %s pushed=%d prefetched=%d %s\n",
				tp, r.Mode, r.SpeculatedDocs, r.PrefetchedDocs, fmtRatios(r.Ratios))
		}
	}
	checkGolden(t, "prefetch.txt", buf.Bytes())
}

func TestGoldenClosureAblation(t *testing.T) {
	rows, err := ClosureAblation(smallWorkload(t), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&buf, "%s: %s\n", r.Name, fmtRatios(r.Ratios))
	}
	checkGolden(t, "closure.txt", buf.Bytes())
}

// TestGoldenSelection pins simulator runs that combine the selection
// branches no table above reaches together: top-K with and without a
// floor, and top-K under the hybrid split with a cooperative client and a
// size cap.
func TestGoldenSelection(t *testing.T) {
	w := smallWorkload(t)
	sched, err := simulate.BuildSchedule(w.Trace, simulate.Baseline(w.Site, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		set  func(*simulate.Config)
	}{
		{"top3 p>=0.25", func(c *simulate.Config) { c.TopK = 3 }},
		{"top1 p>=0", func(c *simulate.Config) { c.TopK, c.Tp = 1, 0 }},
		{"top2 hybrid coop max=8k", func(c *simulate.Config) {
			c.TopK, c.Tp = 2, 0.05
			c.Mode = speculation.ModeHybrid
			c.EmbedThreshold = 0.5
			c.PrefetchTp = 0.1
			c.Cooperative = true
			c.MaxSize = 8 << 10
		}},
		{"hints coop max=15k", func(c *simulate.Config) {
			c.Tp = 0.1
			c.Mode = speculation.ModeHints
			c.Cooperative = true
			c.MaxSize = 15 << 10
		}},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		cfg := simulate.Baseline(w.Site, 0.25)
		c.set(&cfg)
		res, err := simulate.RunWithSchedule(w.Trace, cfg, sched)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s: pushed=%d prefetched=%d used=%d %s\n", c.name,
			res.SpeculatedDocs, res.PrefetchedDocs, res.UsedDocs, fmtRatios(res.Ratios))
	}
	checkGolden(t, "selection.txt", buf.Bytes())
}
