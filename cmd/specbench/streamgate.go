// The streaming gate (make bench-stream): proves the cursor source is
// both correct and worth it. Correctness is byte-identity — over a small
// spec × overload cube, driving from per-client seeded cursors must
// produce exactly the deterministic report that materializing the same
// stream produces, across worker counts. Worth-it is the memory bound —
// at a 100k-client population the streamed pipeline's peak live heap
// must stay under a fixed fraction of what materializing the trace
// costs. Results land in BENCH-stream.json; the deterministic fields
// (request/client counts, cell coverage) are gated against a committed
// baseline so silent workload drift fails CI.
package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/loadgen"
	"specweb/internal/netsim"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

const (
	streamGateSchema = "specbench-stream/1"

	// Memory-bound arm sizing: a 100k-client population over enough
	// simulated days that the materialized trace is tens of times larger
	// than the cursor state, making the ratio a meaningful bound rather
	// than noise.
	streamGateClients  = 100_000
	streamGateDays     = 10
	streamGateSessions = 25_000

	// streamMemoryBound is the acceptance criterion: streamed peak live
	// heap ≤ this fraction of the materialized trace's live heap.
	streamMemoryBound = 0.2

	// streamSampleEvery is the row interval between peak-heap samples on
	// the streamed arm (each sample forces a GC for a live-bytes reading).
	streamSampleEvery = 1 << 18
)

type streamGateReport struct {
	Schema   string             `json:"schema"`
	Identity streamIdentityInfo `json:"identity"`
	Memory   streamMemoryInfo   `json:"memory"`
}

type streamIdentityInfo struct {
	Cells   int   `json:"cells"`
	Workers []int `json:"workers"`
	OK      bool  `json:"ok"`
}

type streamMemoryInfo struct {
	Clients           int     `json:"clients"`
	Requests          int     `json:"requests"`
	MaterializedBytes uint64  `json:"materialized_bytes"`
	StreamedPeakBytes uint64  `json:"streamed_peak_bytes"`
	Ratio             float64 `json:"ratio"`
	Bound             float64 `json:"bound"`
}

// gateCellConfig is one conformance cell: the tiny workload with the
// cursor source on, toggling speculation and overload control.
func gateCellConfig(spec, over bool) loadgen.Config {
	wl := experiments.DefaultWorkload()
	wl.Profile = webgraph.TinySite()
	wl.Net = netsim.TinyConfig()
	wl.Days = 2
	wl.SessionsPerDay = 30
	wl.Seed = 7
	return loadgen.Config{
		Workload:           wl,
		Seed:               wl.Seed,
		Workers:            3,
		WarmupFraction:     0.3,
		Speculate:          spec,
		Mode:               httpspec.ModePush,
		MaxPush:            8,
		PrefetchThreshold:  0.25,
		SessionGapRequests: 50,
		Overload:           over,
		Stream:             true,
	}
}

// deterministicCell runs the cell and returns its deterministic JSON with
// the worker count normalized out (config echo, not behavior).
func deterministicCell(cfg loadgen.Config, workers int) ([]byte, error) {
	cfg.Workers = workers
	rep, err := loadgen.RunReport(cfg, false)
	if err != nil {
		return nil, err
	}
	rep.Config.Workers = 0
	return rep.DeterministicJSON()
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureStreamMemory runs the trace pipeline both ways over the same
// 100k-client configuration: the streamed arm consumes the canonical
// merge row by row (sampling peak live heap as it goes), the materialized
// arm builds the full trace and measures what holding it costs. The two
// arms regenerate the identical stream, so the request count doubles as a
// determinism cross-check.
func measureStreamMemory(clients, days int, sessionsPerDay float64) (streamMemoryInfo, error) {
	info := streamMemoryInfo{Clients: clients, Bound: streamMemoryBound}
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(1995).Split("site"))
	if err != nil {
		return info, err
	}
	scfg := synth.DefaultConfig(site, nil)
	scfg.LocalClients = clients * 3 / 10
	scfg.RemoteClients = clients - scfg.LocalClients
	scfg.Days = days
	scfg.SessionsPerDay = sessionsPerDay

	// Streamed arm first, so the materialized trace never sits in the
	// heap behind its baseline.
	base := liveHeap()
	s, err := synth.NewStream(scfg, 1995)
	if err != nil {
		return info, err
	}
	merged := s.Merged()
	var peak uint64
	sample := func() {
		if h := liveHeap(); h > base && h-base > peak {
			peak = h - base
		}
	}
	n := 0
	for {
		if _, ok := merged.Next(); !ok {
			break
		}
		n++
		if n%streamSampleEvery == 0 {
			sample()
		}
	}
	sample()
	info.Requests = n
	info.StreamedPeakBytes = peak
	s, merged = nil, nil
	_, _ = s, merged

	// Materialized arm: same stream, fully retained.
	base = liveHeap()
	s2, err := synth.NewStream(scfg, 1995)
	if err != nil {
		return info, err
	}
	tr := trace.Materialize(s2.Merged())
	if tr.Len() != n {
		return info, fmt.Errorf("stream regeneration diverged: %d rows materialized, %d streamed", tr.Len(), n)
	}
	if h := liveHeap(); h > base {
		info.MaterializedBytes = h - base
	}
	runtime.KeepAlive(tr)
	if info.MaterializedBytes > 0 {
		info.Ratio = float64(info.StreamedPeakBytes) / float64(info.MaterializedBytes)
	}
	return info, nil
}

// runStreamGate executes both gate halves, writes BENCH-stream.json, and
// exits non-zero on any identity divergence, a busted memory bound, or
// deterministic drift against the committed baseline.
func runStreamGate(out, baselinePath string, quiet bool) {
	start := time.Now()
	rep := streamGateReport{Schema: streamGateSchema}
	rep.Identity.Workers = []int{1, 4}
	rep.Identity.OK = true
	for _, spec := range []bool{false, true} {
		for _, over := range []bool{false, true} {
			rep.Identity.Cells++
			oracle := gateCellConfig(spec, over)
			oracle.StreamMaterialize = true
			want, err := deterministicCell(oracle, 3)
			if err != nil {
				fatal(err)
			}
			for _, w := range rep.Identity.Workers {
				got, err := deterministicCell(gateCellConfig(spec, over), w)
				if err != nil {
					fatal(err)
				}
				if !bytes.Equal(want, got) {
					rep.Identity.OK = false
					fmt.Fprintf(os.Stderr,
						"specbench: stream gate: cell spec=%v overload=%v workers=%d diverged from the materialized oracle\n",
						spec, over, w)
				}
			}
		}
	}

	mem, err := measureStreamMemory(streamGateClients, streamGateDays, streamGateSessions)
	if err != nil {
		fatal(err)
	}
	rep.Memory = mem

	writeJSON(out, rep)

	if !quiet {
		fmt.Fprintf(os.Stderr,
			"specbench: stream gate: %d identity cells ok=%v; memory %d clients / %d requests: streamed peak %s vs materialized %s (ratio %.3f, bound %.2f), took %v\n",
			rep.Identity.Cells, rep.Identity.OK, mem.Clients, mem.Requests,
			experiments.FmtBytes(int64(mem.StreamedPeakBytes)),
			experiments.FmtBytes(int64(mem.MaterializedBytes)),
			mem.Ratio, mem.Bound, time.Since(start).Round(time.Millisecond))
	}

	var violations []string
	if !rep.Identity.OK {
		violations = append(violations, "streamed runs diverged from the materialized oracle")
	}
	if mem.Ratio > mem.Bound {
		violations = append(violations, fmt.Sprintf(
			"streamed peak heap is %.3f× the materialized trace, bound %.2f×", mem.Ratio, mem.Bound))
	}
	if baselinePath != "" {
		var base streamGateReport
		readJSON(baselinePath, &base)
		// Only the deterministic fields gate against the baseline; the
		// byte counts are machine-local.
		if base.Memory.Clients != mem.Clients || base.Memory.Requests != mem.Requests {
			violations = append(violations, fmt.Sprintf(
				"deterministic workload drifted from %s: %d clients / %d requests, baseline %d / %d",
				baselinePath, mem.Clients, mem.Requests, base.Memory.Clients, base.Memory.Requests))
		}
		if base.Identity.Cells != rep.Identity.Cells {
			violations = append(violations, fmt.Sprintf(
				"identity coverage changed: %d cells, baseline %d", rep.Identity.Cells, base.Identity.Cells))
		}
	}
	gate("stream gate", violations)
}
