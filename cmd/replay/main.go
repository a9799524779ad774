// Command replay drives a recorded (or synthesized) trace against a live
// speculative HTTP server and reports what speculation bought over the
// wire: start `specd` in one terminal, then
//
//	tracegen -profile department -days 3 -rate 50 -o trace.log
//	replay -trace trace.log -server http://localhost:8095 -bundles -cooperative
//
// When -trace is omitted, a small trace is synthesized in-process against
// the same profile the default specd serves, so the two-command demo works
// with no files at all. (Page paths are deterministic per profile; a few
// object paths may 404 because the object population depends on the
// generator stream — replay a tracegen file for an exact match.)
//
// With -json the run emits a structured summary — the paper's four
// speculative/non-speculative ratios (bandwidth, server load, service
// time, byte miss rate; Figs. 5–6) plus latency percentiles — so runs are
// machine-comparable across configurations.
//
// With -chaos the replay injects deterministic faults into its own
// transport (connection errors, 5xx bursts, truncated bodies, latency —
// the -fault-* flags), retries demand fetches with capped jittered
// backoff, and reports an availability section: the fraction of replayed
// requests ultimately answered despite the faults, plus retry and
// stale-serve counts. Example:
//
//	replay -chaos -fault-error-rate 0.2 -json
//
// With -rate the replay switches from its default closed loop (each
// request waits for the previous answer) to open-loop arrival: requests
// are dispatched at the given rate in groups of -burst whether or not the
// server keeps up — the regime where overload control matters. Open-loop
// runs add an overload section (shed counts per class, demand p99, the
// degradation-ladder rung reached) scraped from the server's /spec/stats.
// Note: -rate used to mean sessions/day for the synthesized trace; that
// knob is now -sessions.
//
//	replay -rate 400 -burst 8 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/resilience"
	"specweb/internal/resilience/faults"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "CLF trace file (empty: synthesize a small one)")
		server    = flag.String("server", "http://localhost:8095", "speculative server base URL")
		bundles   = flag.Bool("bundles", true, "accept speculative bundles")
		coop      = flag.Bool("cooperative", false, "send cache digests")
		prefetch  = flag.Float64("prefetch", 0, "follow prefetch hints at or above this probability (0 = off)")
		session   = flag.Int("session", 0, "purge each client's cache every N requests (0 = never)")
		days      = flag.Int("days", 2, "days to synthesize when no trace file is given")
		sessions  = flag.Float64("sessions", 30, "sessions/day to synthesize")
		seed      = flag.Int64("seed", 1995, "seed for the synthesized trace")
		profile   = flag.String("profile", "department", "profile for the synthesized trace: department, media, or tiny (must match the server's)")
		asJSON    = flag.Bool("json", false, "emit the run summary as JSON on stdout")

		rate    = flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = closed loop); adds the overload summary section")
		burst   = flag.Int("burst", 1, "requests dispatched per open-loop arrival tick")
		prioLow = flag.Float64("priority-low", 0, "fraction of clients tagged Spec-Priority: low (shed first under overload)")

		attribOn = flag.Bool("attrib", false, "track speculation attribution (consumed vs wasted bytes per class) and add it to the summary")
		feedback = flag.Bool("attrib-feedback", false, "piggyback Spec-Attrib resolution tokens for pushed documents too, so the server's /debug/attrib ledger learns their fates (tokens for prefetched documents are always sent: they train its estimator)")

		chaos   = flag.Bool("chaos", false, "inject faults into the replay transport and report availability")
		retries = flag.Int("retries", 4, "max attempts per demand fetch under -chaos (1 = no retries)")
		timeout = flag.Duration("timeout", 5*time.Second, "per-request timeout under -chaos (0 = none)")

		faultSeed     = flag.Int64("fault-seed", 0, "chaos: fault injection seed (0 = fixed default)")
		faultErr      = flag.Float64("fault-error-rate", 0.2, "chaos: probability a request fails with a connection error")
		fault5xx      = flag.Float64("fault-5xx-rate", 0, "chaos: probability a request draws a synthetic 500 burst")
		fault5xxBurst = flag.Int("fault-5xx-burst", 1, "chaos: consecutive 500s per 5xx draw")
		faultLatency  = flag.Duration("fault-latency", 0, "chaos: added latency per request")
		faultJitter   = flag.Duration("fault-latency-jitter", 0, "chaos: uniform extra latency in [0, jitter)")
		faultTruncate = flag.Float64("fault-truncate-rate", 0, "chaos: probability a response body is cut short")
	)
	flag.Parse()

	var tr *trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		var bad int
		tr, err = trace.ParseCLF(f, nil, func(string, error) { bad++ })
		if err != nil {
			fail(err)
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "replay: skipped %d unparseable lines\n", bad)
		}
	} else {
		cfg := experiments.DefaultWorkload()
		p, err := webgraph.ProfileByName(*profile)
		if err != nil {
			fail(err)
		}
		cfg.Profile = p
		cfg.Days = *days
		cfg.SessionsPerDay = *sessions
		cfg.Seed = *seed
		w, err := experiments.Build(cfg)
		if err != nil {
			fail(err)
		}
		tr = w.Trace
	}
	fmt.Fprintf(os.Stderr, "replay: %d requests from %d clients against %s\n",
		tr.Len(), len(tr.Clients()), *server)

	rcfg := httpspec.ReplayConfig{
		Base:               *server,
		AcceptBundles:      *bundles,
		Cooperative:        *coop,
		PrefetchThreshold:  *prefetch,
		SessionGapRequests: *session,
		Rate:               *rate,
		Burst:              *burst,
		LowPriority:        *prioLow,
		Attrib:             *attribOn,
		AttribFeedback:     *feedback,
	}
	if *rate > 0 {
		fmt.Fprintf(os.Stderr, "replay: open loop at %.1f req/s, burst %d\n", *rate, *burst)
	}
	var inj *faults.Injector
	if *chaos {
		// Chaos mode injects faults into the replay's own transport, so
		// the server under test stays pristine and the experiment needs
		// only this one process flag.
		fcfg := faults.Config{
			Seed:          *faultSeed,
			ErrorRate:     *faultErr,
			Rate5xx:       *fault5xx,
			Burst5xx:      *fault5xxBurst,
			Latency:       *faultLatency,
			LatencyJitter: *faultJitter,
			TruncateRate:  *faultTruncate,
		}
		inj = faults.New(fcfg)
		rcfg.HTTP = &http.Client{Transport: inj.Transport(nil)}
		rcfg.Chaos = true
		rcfg.RequestTimeout = *timeout
		if *retries > 1 {
			rc := resilience.DefaultRetryConfig()
			rc.MaxAttempts = *retries
			rcfg.Retry = rc
		}
		fmt.Fprintf(os.Stderr, "replay: chaos mode (error %.2f, 5xx %.2f×%d, truncate %.2f, latency %s+%s, retries %d)\n",
			*faultErr, *fault5xx, *fault5xxBurst, *faultTruncate, *faultLatency, *faultJitter, *retries)
	}

	stats, err := httpspec.Replay(tr, rcfg)
	if err != nil {
		fail(err)
	}
	sum := stats.Summary()
	if inj != nil {
		fs := inj.Stats()
		fmt.Fprintf(os.Stderr, "replay: injected faults: %d errors, %d 5xx, %d truncations, %d delays\n",
			fs.Errors, fs.Fives, fs.Truncations, fs.Delays)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("clients:     %d\n", sum.Clients)
	fmt.Printf("requests:    %d (errors %d)\n", sum.Requests, sum.Errors)
	fmt.Printf("cache hits:  %d (%.1f%%), %d manufactured by speculation\n", sum.CacheHits,
		100*float64(sum.CacheHits)/float64(max64(sum.Requests, 1)), sum.SpecHits)
	fmt.Printf("pushed:      %d speculative documents received\n", sum.Pushed)
	fmt.Printf("prefetched:  %d hinted documents in %d round trips\n", sum.Prefetched, sum.PrefetchRoundTrips)
	fmt.Printf("bytes in:    %s (baseline %s)\n",
		experiments.FmtBytes(sum.BytesIn), experiments.FmtBytes(sum.BaselineBytes))
	fmt.Printf("ratios vs non-speculative (Figs. 5-6):\n")
	fmt.Printf("  bandwidth:      %.3f\n", sum.Ratios.Bandwidth)
	fmt.Printf("  server load:    %.3f\n", sum.Ratios.ServerLoad)
	fmt.Printf("  service time:   %.3f\n", sum.Ratios.ServiceTime)
	fmt.Printf("  byte miss rate: %.3f\n", sum.Ratios.ByteMissRate)
	fmt.Printf("latency ms:  p50 %.2f  p90 %.2f  p99 %.2f  mean %.2f  max %.2f\n",
		sum.LatencyMS.P50, sum.LatencyMS.P90, sum.LatencyMS.P99, sum.LatencyMS.Mean, sum.LatencyMS.Max)
	if sum.Chaos != nil {
		fmt.Printf("chaos:\n")
		fmt.Printf("  availability:   %.4f\n", sum.Chaos.Availability)
		fmt.Printf("  retries:        %d\n", sum.Chaos.Retries)
		fmt.Printf("  stale serves:   %d (ratio %.4f)\n", sum.Chaos.StaleServes, sum.Chaos.StaleRatio)
		if sum.Chaos.EstimatorRefreshes > 0 {
			fmt.Printf("  est refreshes:  %d (%d early, %d snapshots rejected)\n",
				sum.Chaos.EstimatorRefreshes, sum.Chaos.EstimatorEarlyRefreshes,
				sum.Chaos.EstimatorRejectedSnapshots)
		}
		if ck := sum.Chaos.Checkpoint; ck != nil {
			fmt.Printf("  checkpoints:    %d saved, %d loaded, %d corrupt skipped, %d cold starts\n",
				ck.Saved, ck.Loaded, ck.CorruptSkipped, ck.ColdStarts)
		}
	}
	if sum.Overload != nil {
		ov := sum.Overload
		fmt.Printf("overload (offered %.1f req/s, burst %d):\n", ov.OfferedRate, ov.Burst)
		fmt.Printf("  shed:           %d demand, %d speculative (speculative ratio %.3f)\n",
			ov.DemandShed, ov.SpeculativeShed, ov.ShedSpeculativeRatio)
		fmt.Printf("  demand p99:     %.2f ms\n", ov.DemandP99MS)
		fmt.Printf("  ladder:         reached rung %d, ended %s (effective Tp %.3f)\n",
			ov.MaxRung, ov.Rung, ov.EffectiveTp)
	}
	if at := sum.Attrib; at != nil {
		fmt.Printf("attribution:\n")
		fmt.Printf("  delivered:      %d speculative documents, %s\n",
			at.Totals.Deliveries, experiments.FmtBytes(at.Totals.DeliveredBytes))
		fmt.Printf("  consumed:       %d (%s)\n",
			at.Totals.Consumed, experiments.FmtBytes(at.Totals.ConsumedBytes))
		fmt.Printf("  wasted:         %d (%s)\n",
			at.Totals.Wasted, experiments.FmtBytes(at.Totals.WastedBytes))
		for _, class := range []string{attrib.ClassPush, attrib.ClassPrefetch, attrib.ClassReplica} {
			ct, ok := at.Classes[class]
			if !ok {
				continue
			}
			fmt.Printf("  %-9s       %s delivered, %s wasted\n", class+":",
				experiments.FmtBytes(ct.DeliveredBytes), experiments.FmtBytes(ct.WastedBytes))
		}
		for i, d := range at.Docs {
			if i >= 5 {
				break
			}
			fmt.Printf("  top doc:        %s (%s delivered, %s wasted)\n", d.Doc,
				experiments.FmtBytes(d.DeliveredBytes), experiments.FmtBytes(d.WastedBytes))
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
