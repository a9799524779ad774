// specbench is the deterministic benchmark driver: it generates a
// synthetic workload, drives the speculative HTTP stack (in-process by
// default, or a live server with -server), and writes a BENCH.json
// report — throughput, log-bucketed latency percentiles, error/shed
// counts, and the paper's four speculative-vs-baseline ratios.
//
// By default it runs two arms over the identical workload — speculation
// on and off — so the report carries the machine-portable arm-relative
// comparison. With -baseline it additionally gates the run against a
// committed report and exits non-zero on regression:
//
//	specbench -short -o BENCH.json
//	specbench -short -o BENCH.json -baseline testdata/bench_baseline.json
//
// Everything outside the report's timing sections is byte-deterministic
// for a given seed (same seed ⇒ identical counts and ratios, regardless
// of worker count or machine), so the gate holds those fields to zero
// drift and applies the tolerance only to wall-clock metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/experiments"
	"specweb/internal/loadgen"
	"specweb/internal/obs"
	"specweb/internal/synth"
)

func main() {
	var (
		short   = flag.Bool("short", false, "run the small workload (200-page site, 14 days) instead of the full 90-day evaluation")
		profile = flag.String("profile", "", "override the site profile: department, media, or tiny")
		days    = flag.Int("days", 0, "override observed days")
		sess    = flag.Float64("sessions", 0, "override sessions/day")
		seed    = flag.Int64("seed", 0, "workload seed (0 = the workload's default)")

		workers = flag.Int("workers", 4, "concurrent client drivers")
		warmup  = flag.Float64("warmup", 0.3, "leading trace fraction replayed sequentially to train the engine")
		mode    = flag.String("mode", "hybrid", "delivery mode for the speculative arm: push, hints, or hybrid")
		maxPush = flag.Int("max-push", 16, "documents pushed per response")
		coop    = flag.Bool("cooperative", false, "clients send cache digests")
		pref    = flag.Float64("prefetch", 0.25, "follow prefetch hints at or above this probability (0 = off)")
		session = flag.Int("session", 50, "purge each client's cache every N requests (negative = never)")
		reps    = flag.Int("reps", 5, "repeat each arm and report the fastest rep's timing (counts are identical across reps)")
		think   = flag.Duration("think", 0, "closed-loop think time between a worker's requests")
		jitter  = flag.Duration("think-jitter", 0, "uniform extra think time in [0, jitter), per-worker RNG stream")

		rate  = flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = closed loop)")
		burst = flag.Int("burst", 1, "requests dispatched per open-loop arrival tick")

		server    = flag.String("server", "", "drive this live server instead of the in-process stack (counts are then not byte-deterministic)")
		realclock = flag.Bool("realclock", false, "in-process server uses wall-clock time (required for latency-driven overload governing; breaks count determinism)")
		overloadF = flag.Bool("overload", false, "install admission control and the speculation governor on the in-process server")
		noBase    = flag.Bool("no-baseline-arm", false, "skip the speculation-off arm (faster, but no arm-relative comparison)")

		scenario  = flag.String("scenario", "", "overlay an adversarial workload profile: "+scenarioNames())
		estguardF = flag.Bool("estguard", false, "install the estimator-hardening guard (classification/quarantine, drift refresh, confidence damping)")
		suite     = flag.Bool("scenario-suite", false, "run the adversarial scenario suite (clean + 5 scenarios guarded + crawler unguarded) and write BENCH-scenarios.json")
		maxRows   = flag.Int("max-rows", 0, "bound the dependency estimator to this many tracked documents (0 with -row-topk 0: exact)")
		rowTopK   = flag.Int("row-topk", 0, "bound each estimator row to its top K successors, space-saving style (0 with -max-rows 0: exact)")

		restartF  = flag.Bool("restart", false, "run the kill/restart chaos suite (uninterrupted + warm + cold + corrupt-fallback arms; closed loop, in-process, with or without -stream) and write the restart report")
		crashFrac = flag.Float64("crash-frac", 0.5, "restart: fraction of the measured trace served before the crash")

		timeout = flag.Duration("timeout", 0, "per-request timeout (0 = none)")
		retries = flag.Int("retries", 1, "max attempts per demand fetch (1 = no retries)")

		streamF   = flag.Bool("stream", false, "feed the drive loop from per-client seeded stream cursors instead of a materialized trace (O(clients) memory; a distinct, statistically equivalent workload; every mode but -scenario runs from it)")
		gateF     = flag.Bool("stream-gate", false, "run the streaming gate (streamed-vs-materialized byte identity plus the 100k-client memory bound) and write BENCH-stream.json")
		workerF   = flag.Bool("worker", false, "serve shard jobs over HTTP (POST /run) instead of running a benchmark")
		listenF   = flag.String("listen", "127.0.0.1:0", "worker listen address")
		exitStdin = flag.Bool("exit-on-stdin-close", false, "worker exits when stdin closes (set by -spawn so workers never outlive their coordinator)")
		coordF    = flag.String("coordinator", "", "comma-separated worker addresses; shard the run across them and merge the partial reports")
		spawnN    = flag.Int("spawn", 0, "self-exec this many local workers and coordinate across them")
		verifyS   = flag.Bool("verify-single", false, "after the distributed merge, run the same config single-process and require byte-identical deterministic reports")

		chaos         = flag.Bool("chaos", false, "inject transport faults (seeded; chaos runs are not byte-deterministic)")
		faultSeed     = flag.Int64("fault-seed", 0, "chaos: fault injection seed (0 = fixed default)")
		faultErr      = flag.Float64("fault-error-rate", 0.05, "chaos: probability a request fails with a connection error")
		fault5xx      = flag.Float64("fault-5xx-rate", 0, "chaos: probability a request draws a synthetic 500 burst")
		fault5xxBurst = flag.Int("fault-5xx-burst", 1, "chaos: consecutive 500s per 5xx draw")
		faultLatency  = flag.Duration("fault-latency", 0, "chaos: added latency per request")
		faultJitter   = flag.Duration("fault-latency-jitter", 0, "chaos: uniform extra latency in [0, jitter)")
		faultTruncate = flag.Float64("fault-truncate-rate", 0, "chaos: probability a response body is cut short")

		version   = flag.Bool("version", false, "print build information and exit")
		out       = flag.String("o", "BENCH.json", "output report path (- = stdout)")
		baseline  = flag.String("baseline", "", "gate against this committed BENCH.json and exit 1 on regression")
		tolerance = flag.Float64("tolerance", 10, "allowed drift in percent for gated metrics")
		latSlack  = flag.Float64("lat-slack-ms", 0.75, "absolute latency difference forgiven by the gate, in ms")
		absolute  = flag.Bool("absolute", false, "also gate raw per-arm throughput and p99 (same-machine baselines only)")
		quiet     = flag.Bool("q", false, "suppress the human summary on stderr")
	)
	flag.Parse()
	if *version {
		fmt.Println("specbench", obs.ReadBuild().String())
		return
	}
	obs.RegisterBuildInfo(nil, "specbench")

	if *workerF {
		if err := runWorker(*listenF, *exitStdin); err != nil {
			fatal(err)
		}
		return
	}
	if *gateF {
		runStreamGate(*out, *baseline, *quiet)
		return
	}

	if *scenario != "" {
		if _, err := synth.ScenarioByName(*scenario); err != nil {
			fatal(err)
		}
	}

	// The wire job carries the flag-level workload selection; both this
	// process and any worker resolve it through jobSpec.config, so a
	// distributed merge can only ever be compared against the identical
	// single-process configuration.
	spec := jobSpec{
		Schema:        jobSchema,
		Short:         *short,
		Profile:       *profile,
		Days:          *days,
		Sessions:      *sess,
		Seed:          *seed,
		Scenario:      *scenario,
		Workers:       *workers,
		Warmup:        *warmup,
		Mode:          *mode,
		MaxPush:       *maxPush,
		Cooperative:   *coop,
		Prefetch:      *pref,
		SessionGap:    *session,
		Reps:          *reps,
		Think:         *think,
		ThinkJitter:   *jitter,
		Rate:          *rate,
		Burst:         *burst,
		Overload:      *overloadF,
		Stream:        *streamF,
		Timeout:       *timeout,
		Retries:       *retries,
		Chaos:         *chaos,
		FaultSeed:     *faultSeed,
		FaultErr:      *faultErr,
		Fault5xx:      *fault5xx,
		Fault5xxBurst: *fault5xxBurst,
		FaultLatency:  *faultLatency,
		FaultJitter:   *faultJitter,
		FaultTruncate: *faultTruncate,
		WithBaseline:  !*noBase,
	}
	cfg, err := spec.config()
	if err != nil {
		fatal(err)
	}
	// Single-process-only knobs: the shard protocol excludes them (they
	// hold per-process state that cannot merge), so they ride on the
	// config after the wire-safe part is built.
	cfg.BaseURL = *server
	cfg.RealClock = *realclock
	cfg.Estguard = *estguardF
	cfg.MaxRows = *maxRows
	cfg.RowTopK = *rowTopK

	if *spawnN > 0 || *coordF != "" {
		if *server != "" || *realclock || *estguardF || *maxRows > 0 || *rowTopK > 0 || *restartF || *suite {
			fatal(fmt.Errorf("distributed runs exclude -server, -realclock, -estguard, -max-rows, -row-topk, -restart, and -scenario-suite"))
		}
		var addrs []string
		if *spawnN > 0 {
			spawned, stop, err := spawnWorkers(*spawnN)
			if err != nil {
				fatal(err)
			}
			defer stop()
			addrs = append(addrs, spawned...)
		}
		if *coordF != "" {
			addrs = append(addrs, strings.Split(*coordF, ",")...)
		}
		runCoordinator(spec, addrs, *verifyS, *out, *baseline, *tolerance, *latSlack, *absolute, *quiet)
		return
	}

	if *suite {
		runScenarioSuite(cfg, *out, *baseline, *tolerance, *quiet)
		return
	}
	if *restartF {
		cfg.Restart = &loadgen.RestartConfig{Mode: loadgen.RestartWarm, CrashFraction: *crashFrac}
		runRestartSuite(cfg, *out, *baseline, *tolerance, *quiet)
		return
	}

	start := time.Now()
	rep, err := loadgen.RunReport(cfg, !*noBase)
	if err != nil {
		fatal(err)
	}

	data, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	if !*quiet {
		summarize(rep, time.Since(start))
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fatal(err)
		}
		violations := loadgen.Compare(base, rep, loadgen.CompareOptions{
			TolerancePct:   *tolerance,
			LatencySlackMS: *latSlack,
			Absolute:       *absolute,
		})
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "specbench: regression gate FAILED against %s:\n", *baseline)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  - %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "specbench: regression gate passed against %s (tolerance %.0f%%)\n",
			*baseline, *tolerance)
	}
}

func scenarioNames() string {
	names := synth.ScenarioNames()
	return strings.Join(names[1:], ", ")
}

// runScenarioSuite executes the adversarial scenario suite, writes the
// BENCH-scenarios.json report, enforces the structural invariants
// (guarded crawler interception strictly beats unguarded; per-scenario
// degradation bounds vs clean), and optionally gates the deterministic
// metrics against a committed baseline suite.
func runScenarioSuite(cfg loadgen.Config, out, baseline string, tolerance float64, quiet bool) {
	start := time.Now()
	rep, err := loadgen.RunScenarioSuite(cfg)
	if err != nil {
		fatal(err)
	}

	data, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "specbench: scenario suite, %d arms, took %v\n",
			len(rep.Arms), time.Since(start).Round(time.Millisecond))
		for _, arm := range rep.Arms {
			q := int64(0)
			if arm.Guard != nil {
				q = arm.Guard.QuarantinedClients
			}
			fmt.Fprintf(os.Stderr,
				"  %-18s interception %.4f  wasted %.4f  bandwidth %.3f  p99 %7.3fms  quarantined %d\n",
				arm.Name, arm.Interception, arm.WastedFraction, arm.Ratios.Bandwidth, arm.P99MS, q)
		}
	}

	violations := loadgen.CheckScenarioInvariants(rep)
	if baseline != "" {
		bd, err := os.ReadFile(baseline)
		if err != nil {
			fatal(err)
		}
		var base loadgen.ScenarioReport
		if err := json.Unmarshal(bd, &base); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", baseline, err))
		}
		violations = append(violations, loadgen.CompareScenarios(&base, rep, tolerance)...)
	}
	if len(violations) > 0 {
		fmt.Fprintln(os.Stderr, "specbench: scenario gate FAILED:")
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "specbench: scenario gate passed")
}

// runRestartSuite executes the kill/restart chaos suite, writes the
// BENCH-restart.json report, enforces the durability invariants (warm
// recovery within slack of the uninterrupted control, warm strictly
// beats cold, corrupt frames fall back to last-good, zero dropped
// demand), and optionally gates against a committed baseline suite.
func runRestartSuite(cfg loadgen.Config, out, baseline string, tolerance float64, quiet bool) {
	start := time.Now()
	rep, err := loadgen.RunRestartSuite(cfg)
	if err != nil {
		fatal(err)
	}

	data, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "specbench: restart suite took %v\n",
			time.Since(start).Round(time.Millisecond))
		arm := func(name string, r *loadgen.Result) {
			if r == nil || r.Restart == nil {
				return
			}
			ri := r.Restart
			line := fmt.Sprintf("  %-16s interception p1 %.4f  p2 %.4f", name,
				ri.Phase1.Interception, ri.Phase2.Interception)
			if r.Checkpoint != nil {
				ck := r.Checkpoint
				line += fmt.Sprintf("  ckpt saved %d loaded %d corrupt-skipped %d cold-starts %d",
					ck.Saved, ck.Loaded, ck.CorruptSkipped, ck.ColdStarts)
			}
			fmt.Fprintln(os.Stderr, line)
		}
		arm("uninterrupted", rep.Uninterrupted)
		arm("warm", rep.Warm)
		arm("cold", rep.Cold)
		arm("corrupt-fallback", rep.CorruptFallback)
	}

	violations := loadgen.CheckRestartInvariants(rep)
	if baseline != "" {
		bd, err := os.ReadFile(baseline)
		if err != nil {
			fatal(err)
		}
		var base loadgen.RestartReport
		if err := json.Unmarshal(bd, &base); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", baseline, err))
		}
		violations = append(violations, loadgen.CompareRestart(&base, rep, tolerance)...)
	}
	if len(violations) > 0 {
		fmt.Fprintln(os.Stderr, "specbench: restart gate FAILED:")
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "specbench: restart gate passed")
}

func readReport(path string) (*loadgen.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("specbench: parsing %s: %w", path, err)
	}
	return &rep, nil
}

func summarize(rep *loadgen.Report, took time.Duration) {
	w := rep.Workload
	fmt.Fprintf(os.Stderr, "specbench: %s site, %d clients, %d measured requests (%d warmup), took %v\n",
		rep.Config.Profile, w.Clients, w.Measured, w.Warmup, took.Round(time.Millisecond))
	arm := func(name string, r *loadgen.Result) {
		if r == nil {
			return
		}
		t := r.Timing
		fmt.Fprintf(os.Stderr,
			"  %-8s %8.0f req/s  p50 %7.3fms  p99 %7.3fms  p999 %7.3fms  errors %d  shed %d\n",
			name, t.Throughput, t.Latency.P50, t.Latency.P99, t.Latency.P999,
			r.Counts.Errors, r.Counts.Shed)
	}
	arm("spec", rep.Spec)
	arm("baseline", rep.Baseline)
	if r := rep.Spec; r != nil {
		fmt.Fprintf(os.Stderr,
			"  ratios   bandwidth %.3f  server_load %.3f  service_time %.3f  byte_miss_rate %.3f\n",
			r.Ratios.Bandwidth, r.Ratios.ServerLoad, r.Timing.ServiceTime, r.Ratios.ByteMissRate)
	}
	if rel := rep.Relative; rel != nil {
		fmt.Fprintf(os.Stderr, "  relative p99 %.3fx  throughput %.3fx (spec vs no-spec)\n",
			rel.P99Ratio, rel.ThroughputRatio)
	}
	if r := rep.Spec; r != nil && r.Attrib != nil {
		at := r.Attrib
		fmt.Fprintf(os.Stderr,
			"  attrib   delivered %s  consumed %s  wasted %s (%d docs tracked)\n",
			experiments.FmtBytes(at.Totals.DeliveredBytes),
			experiments.FmtBytes(at.Totals.ConsumedBytes),
			experiments.FmtBytes(at.Totals.WastedBytes), at.TrackedDocs)
		// Consumed over delivered per decile of the advertised probability:
		// a decile read against its own lower edge says whether the
		// engine's probabilities come true.
		for _, class := range []string{attrib.ClassPush, attrib.ClassPrefetch} {
			if cal, ok := at.Calibration[class]; ok {
				fmt.Fprintf(os.Stderr, "  calib    %-8s  %s\n", class, cal)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specbench:", err)
	os.Exit(1)
}
