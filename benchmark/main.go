//go:build linux

// Command benchmark is the performance benchmark of record for the live
// speculative stack: four workloads, fixed work per pass, every timing the
// first quartile over passes, and a per-layer cost ledger taken from outside the
// program by wrapping the seams it already exposes. See README.md.
//
//	go run . -workload hybrid-dept -seed 1995 -seconds 16 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error. The exit status is non-zero when any check fails.
//
// The package builds on Linux only: the open loop sleeps in nanosleep and
// every pass reads getrusage and /proc/stat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames()+" (required unless -repeat or -manifest)")
		seed     = flag.Int64("seed", 1995, "seed of the request trace; the site and topology are fixed")
		secs     = flag.Float64("seconds", runSeconds, "how long the measured passes run for")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass and the layer replay; 2: both")
		out      = flag.String("out", "", "also write the full report (counts, checks, ledger, machine) to this file")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
		repeat   = flag.Int("repeat", 0, "run every workload this many times and compare the end-to-end metrics against their bounds")
		appendTo = flag.String("append", "", "append one JSON line per run (commit, Go version, machine, all metrics) to this file")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	opts := options{seed: *seed, seconds: *secs, trace: *trace, traceOut: *traceOut}

	switch {
	case *manifest:
		if err := json.NewEncoder(os.Stdout).Encode(benchmarkManifest()); err != nil {
			fatal(err)
		}
	case *repeat > 0:
		ok, err := repeatAll(*repeat, opts, *appendTo)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if *trace < traceOff || *trace > traceBoth {
			fatal(fmt.Errorf("-trace must be 0, 1 or 2"))
		}
		w, err := workloadByName(*name)
		if err != nil {
			fatal(fmt.Errorf("%v (want one of %s)", err, workloadNames()))
		}
		rep, err := runWorkload(w, opts)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stderr, rep)
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fatal(err)
			}
		}
		if *appendTo != "" {
			if err := appendHistory(*appendTo, rep); err != nil {
				fatal(err)
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(resultLine(rep)); err != nil {
			fatal(err)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultLine carries the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one, both at -trace 2.
func resultLine(rep *report) result {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for _, m := range endToEnd {
		if v, ok := rep.EndToEnd[m.name]; ok {
			res.Metrics[m.name] = value{v, m.unit}
		}
	}
	for _, m := range perLayer {
		if v, ok := rep.PerLayer[m.name]; ok {
			res.Metrics[m.name] = value{v, m.unit}
		}
	}
	return res
}

// printReport lists every metric by name with its unit.
func printReport(w *os.File, rep *report) {
	fmt.Fprintf(w, "%s  seed %d  %s, %s loop, %d workers  %d passes of %d requests\n",
		rep.Workload, rep.Seed, rep.Transport, rep.Loop, rep.Workers, rep.Passes, rep.RequestsPerPass)
	for _, m := range endToEnd {
		if v, ok := rep.EndToEnd[m.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	for _, m := range perLayer {
		if v, ok := rep.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		switch {
		case !c.OK:
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		case c.Detail != "":
			fmt.Fprintf(w, "  check %s: %s\n", c.Name, c.Detail)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// machine tags a report with where it was measured.
type machine struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func thisMachine() machine {
	m := machine{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		m.Commit = c
	} else if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// appendHistory adds one JSON line to a history file a later change can
// keep at the root of the repository.
func appendHistory(path string, rep *report) error {
	line, err := json.Marshal(struct {
		machine
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Correct  bool             `json:"correct"`
		Metrics  map[string]value `json:"metrics"`
	}{rep.Machine, rep.Workload, rep.Seed, rep.Correct, resultLine(rep).Metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repeatAll runs the full set n times and prints, per workload and
// end-to-end metric, every value, the widest relative difference in the
// worse direction and the bound. It reports whether all stayed inside.
func repeatAll(n int, o options, appendTo string) (bool, error) {
	o.trace = traceOff
	runs := make(map[string][]*report)
	allOK := true
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			rep, err := runWorkload(w, o)
			if err != nil {
				return false, fmt.Errorf("%s, run %d: %w", w.name, i+1, err)
			}
			printReport(os.Stderr, rep)
			allOK = allOK && rep.Correct
			runs[w.name] = append(runs[w.name], rep)
			if appendTo != "" {
				if err := appendHistory(appendTo, rep); err != nil {
					return false, err
				}
			}
		}
	}
	fmt.Printf("%-14s %-20s %-8s %8s %8s  %s\n", "workload", "metric", "unit", "diff", "bound", "values")
	for _, w := range workloads {
		for _, m := range endToEnd {
			vals := make([]float64, 0, n)
			for _, rep := range runs[w.name] {
				vals = append(vals, rep.EndToEnd[m.name])
			}
			diff := worstDiff(vals)
			verdict := ""
			if diff > m.bound {
				verdict = "  EXCEEDS"
				allOK = false
			}
			fmt.Printf("%-14s %-20s %-8s %8.4f %8.2f  %s%s\n", w.name, m.name, m.unit, diff, m.bound, formatValues(vals), verdict)
		}
	}
	return allOK, nil
}

// worstDiff is the spread of repeated values relative to their smallest.
func worstDiff(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := slices.Min(vals), slices.Max(vals)
	if lo == 0 {
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(lo)
}

func formatValues(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return strings.Join(parts, " ")
}

// benchmarkManifest renders BENCHMARK.json from the tables in this
// package, so the two cannot drift apart.
func benchmarkManifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	var es []e2e
	for _, m := range endToEnd {
		es = append(es, e2e{m.name, m.unit, m.better, m.bound})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.name, m.unit, m.better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

// runSeconds is the measured time per run the driver is told to ask for.
const runSeconds = 16
