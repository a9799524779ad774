// Speculation walkthrough: the §3 pipeline on a multimedia-heavy workload —
// estimate the document-dependency matrix, inspect the Figure 4 structure,
// sweep the speculation threshold, and compare cooperative and prefetching
// variants.
//
// Run with:
//
//	go run ./examples/speculation
package main

import (
	"fmt"
	"log"
	"time"

	"specweb/internal/experiments"
	"specweb/internal/markov"
	"specweb/internal/netsim"
	"specweb/internal/simulate"
	"specweb/internal/speculation"
	"specweb/internal/webgraph"
)

func main() {
	// A media site (in the spirit of the paper's Rolling Stones footnote):
	// fewer pages, much larger objects, sharper popularity skew.
	profile := webgraph.MediaSite()
	profile.Pages = 120
	cfg := experiments.WorkloadConfig{
		Profile:        profile,
		Net:            netsim.TinyConfig(),
		Days:           21,
		SessionsPerDay: 70,
		Seed:           42,
	}
	w, err := experiments.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("media workload: %d requests over %d days, %s served\n\n",
		w.Trace.Len(), cfg.Days, experiments.FmtBytes(w.Trace.TotalBytes()))

	// Step 1 — the dependency matrix P (§3.1, Figure 4).
	m, err := markov.Estimate(w.Trace, markov.EstimateConfig{
		Window: 5 * time.Second, StrideTimeout: 5 * time.Second,
		MinOccurrences: 5, Smoothing: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	h := m.PairHistogram(10)
	fmt.Printf("P matrix: %d dependent pairs across %d documents\n", m.NumPairs(), m.NumRows())
	fmt.Printf("embedding peak (p in [0.9,1.0]) holds %.0f%% of pairs\n\n", 100*h.Fraction(9))

	// Step 2 — threshold sweep (Figures 5–6).
	fmt.Println("threshold sweep (push mode, baseline parameters):")
	pts, err := experiments.Figure5(w, []float64{0.9, 0.5, 0.25, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("  Tp=%.2f: %s\n", p.Tp, p.Ratios)
	}
	fmt.Println()

	// Step 3 — cooperative clients (§3.4): the client piggybacks a digest
	// of its cache, so the server never pushes what it already has.
	sched, err := simulate.BuildSchedule(w.Trace, simulate.Baseline(w.Site, 0.25))
	if err != nil {
		log.Fatal(err)
	}
	plain := simulate.Baseline(w.Site, 0.25)
	rp, err := simulate.RunWithSchedule(w.Trace, plain, sched)
	if err != nil {
		log.Fatal(err)
	}
	coop := simulate.Baseline(w.Site, 0.25)
	coop.Cooperative = true
	rc, err := simulate.RunWithSchedule(w.Trace, coop, sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain:       %s\n", rp.Ratios)
	fmt.Printf("cooperative: %s\n\n", rc.Ratios)

	// Step 4 — delivery modes (§3.4): pushing versus hinting versus the
	// hybrid protocol.
	for _, mode := range []speculation.Mode{speculation.ModePush, speculation.ModeHints, speculation.ModeHybrid} {
		mc := simulate.Baseline(w.Site, 0.25)
		mc.Mode = mode
		mc.PrefetchTp = 0.25
		r, err := simulate.RunWithSchedule(w.Trace, mc, sched)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s %s (pushed %d, prefetched %d)\n",
			mode.String()+":", r.Ratios, r.SpeculatedDocs, r.PrefetchedDocs)
	}

	// Step 5 — MaxSize (§3.4): on a media site the size cap matters, since
	// the object tail is enormous.
	fmt.Println("\nMaxSize sweep at Tp=0.25:")
	for _, maxSize := range []int64{0, 256 << 10, 29 << 10, 15 << 10} {
		mc := simulate.Baseline(w.Site, 0.25)
		mc.MaxSize = maxSize
		r, err := simulate.RunWithSchedule(w.Trace, mc, sched)
		if err != nil {
			log.Fatal(err)
		}
		name := "∞"
		if maxSize > 0 {
			name = experiments.FmtBytes(maxSize)
		}
		fmt.Printf("  MaxSize %-8s %s\n", name+":", r.Ratios)
	}
}
