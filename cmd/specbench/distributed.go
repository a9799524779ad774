// Distributed specbench: a coordinator splits the client population into
// disjoint shards (stable FNV hash inside loadgen), ships one job per
// worker over HTTP, and merges the returned partial reports into a
// BENCH.json byte-identical to the single-process run.
//
// The wire job carries flag-level values — profile NAME, day/session
// overrides, driver knobs — not the resolved config structs, because the
// workload profile holds distribution interfaces that do not survive
// JSON. Coordinator and worker therefore rebuild the config through the
// same jobSpec.config path, which is also what guarantees the merge-time
// config-identity check across shards can hold byte-for-byte.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/loadgen"
	"specweb/internal/netsim"
	"specweb/internal/resilience"
	"specweb/internal/resilience/faults"
	"specweb/internal/webgraph"
)

const (
	jobSchema = "specbench-job/1"
	// listenPrefix is the handshake line a worker prints on stdout once
	// its listener is bound; the spawner scans for it to learn the port.
	listenPrefix = "SPECBENCH_WORKER_LISTENING="
)

// jobSpec is the wire form of one shard's work order. Fields mirror the
// CLI flags (not the resolved structs) so the worker reconstructs the
// exact same workload the coordinator described — same profile lookup,
// same short/override precedence — through jobSpec.config.
type jobSpec struct {
	Schema string `json:"schema"`

	// Workload selection, flag-level.
	Short    bool    `json:"short,omitempty"`
	Profile  string  `json:"profile,omitempty"`
	Days     int     `json:"days,omitempty"`
	Sessions float64 `json:"sessions,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Scenario string  `json:"scenario,omitempty"`

	// Driver knobs.
	Workers     int           `json:"workers"`
	Warmup      float64       `json:"warmup"`
	Mode        string        `json:"mode"`
	MaxPush     int           `json:"max_push"`
	Cooperative bool          `json:"cooperative,omitempty"`
	Prefetch    float64       `json:"prefetch"`
	SessionGap  int           `json:"session_gap"`
	Think       time.Duration `json:"think,omitempty"`
	ThinkJitter time.Duration `json:"think_jitter,omitempty"`
	Rate        float64       `json:"rate,omitempty"`
	Burst       int           `json:"burst,omitempty"`
	Overload    bool          `json:"overload,omitempty"`
	Stream      bool          `json:"stream,omitempty"`
	Timeout     time.Duration `json:"timeout,omitempty"`
	Retries     int           `json:"retries,omitempty"`

	// Chaos knobs (seeded fault injection).
	Chaos         bool          `json:"chaos,omitempty"`
	FaultSeed     int64         `json:"fault_seed,omitempty"`
	FaultErr      float64       `json:"fault_error_rate,omitempty"`
	Fault5xx      float64       `json:"fault_5xx_rate,omitempty"`
	Fault5xxBurst int           `json:"fault_5xx_burst,omitempty"`
	FaultLatency  time.Duration `json:"fault_latency,omitempty"`
	FaultJitter   time.Duration `json:"fault_latency_jitter,omitempty"`
	FaultTruncate float64       `json:"fault_truncate_rate,omitempty"`

	// Shard assignment, set by the coordinator per worker.
	ShardIndex   int  `json:"shard_index"`
	ShardCount   int  `json:"shard_count"`
	WithBaseline bool `json:"with_baseline"`
}

// workload resolves the flag-level workload selection exactly as the
// single-process CLI does: short base, then profile/day/session/seed
// overrides, with the tiny profile pulling in the tiny network.
func (j jobSpec) workload() (experiments.WorkloadConfig, error) {
	wl := experiments.DefaultWorkload()
	if j.Short {
		wl = experiments.SmallWorkload()
	}
	if j.Profile != "" {
		p, err := webgraph.ProfileByName(j.Profile)
		if err != nil {
			return wl, err
		}
		wl.Profile = p
		if j.Profile == "tiny" {
			wl.Net = netsim.TinyConfig()
		}
	}
	if j.Days > 0 {
		wl.Days = j.Days
	}
	if j.Sessions > 0 {
		wl.SessionsPerDay = j.Sessions
	}
	if j.Seed != 0 {
		wl.Seed = j.Seed
	}
	wl.Scenario = j.Scenario
	return wl, nil
}

// config turns the wire job into the loadgen configuration. Single-process
// main and every worker build their config through this one function, so
// a merged distributed report can only be compared against a single run
// of the identical config.
func (j jobSpec) config() (loadgen.Config, error) {
	if j.Schema != jobSchema {
		return loadgen.Config{}, fmt.Errorf("job schema %q, want %q", j.Schema, jobSchema)
	}
	wl, err := j.workload()
	if err != nil {
		return loadgen.Config{}, err
	}
	m, err := httpspec.ParseMode(j.Mode)
	if err != nil {
		return loadgen.Config{}, err
	}
	cfg := loadgen.Config{
		Workload:           wl,
		Seed:               wl.Seed,
		Workers:            j.Workers,
		WarmupFraction:     j.Warmup,
		Speculate:          true,
		Mode:               m,
		MaxPush:            j.MaxPush,
		Cooperative:        j.Cooperative,
		PrefetchThreshold:  j.Prefetch,
		SessionGapRequests: j.SessionGap,
		Think:              j.Think,
		ThinkJitter:        j.ThinkJitter,
		OpenLoop:           j.Rate > 0,
		Rate:               j.Rate,
		Burst:              j.Burst,
		Overload:           j.Overload,
		Stream:             j.Stream,
		Timeout:            j.Timeout,
		ShardIndex:         j.ShardIndex,
		ShardCount:         j.ShardCount,
	}
	if j.Retries > 1 {
		cfg.Retry = resilience.RetryConfig{MaxAttempts: j.Retries}
	}
	if j.Chaos {
		cfg.Faults = faults.Config{
			Seed:          j.FaultSeed,
			ErrorRate:     j.FaultErr,
			Rate5xx:       j.Fault5xx,
			Burst5xx:      j.Fault5xxBurst,
			Latency:       j.FaultLatency,
			LatencyJitter: j.FaultJitter,
			TruncateRate:  j.FaultTruncate,
		}
	}
	return cfg, nil
}

// workerMux serves the shard protocol: POST /run executes one job and
// returns the partial report, GET /healthz answers liveness probes, and
// POST /quit asks the worker to exit (spawned workers are told to quit by
// the coordinator that owns them).
func workerMux(quit func()) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var job jobSpec
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			http.Error(w, "decoding job: "+err.Error(), http.StatusBadRequest)
			return
		}
		cfg, err := job.config()
		if err != nil {
			http.Error(w, "bad job: "+err.Error(), http.StatusBadRequest)
			return
		}
		p, err := loadgen.RunPartial(cfg, job.WithBaseline)
		if err != nil {
			http.Error(w, "running shard: "+err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(p); err != nil {
			fmt.Fprintf(os.Stderr, "specbench worker: writing partial: %v\n", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/quit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		fmt.Fprintln(w, "bye")
		if quit != nil {
			quit()
		}
	})
	return mux
}

// runWorker binds the listener, prints the handshake line, and serves
// jobs until asked to quit. With exitOnStdinClose (set by the spawner)
// the worker also exits when its stdin pipe closes, so workers never
// outlive a coordinator that died without cleanup.
func runWorker(listen string, exitOnStdinClose bool) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", listenPrefix, ln.Addr().String())

	quit := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(quit) }) }
	srv := &http.Server{Handler: workerMux(stop)}
	if exitOnStdinClose {
		go func() {
			io.Copy(io.Discard, os.Stdin)
			stop()
		}()
	}
	go func() {
		<-quit
		// Give the in-flight /quit response a moment to flush.
		time.Sleep(50 * time.Millisecond)
		srv.Close()
	}()
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// workerURL normalizes an address flag value into the worker's base URL.
func workerURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

// coordinate assigns shard i of N to worker i, posts the jobs
// concurrently, and merges the partials. The merge enforces the shard
// protocol (schema, coverage, config identity), so a mixed-version or
// misconfigured fleet fails loudly instead of producing a skewed report.
func coordinate(job jobSpec, addrs []string, client *http.Client) (*loadgen.Report, error) {
	if client == nil {
		client = &http.Client{}
	}
	parts := make([]*loadgen.Partial, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			j := job
			j.ShardIndex = i
			j.ShardCount = len(addrs)
			body, err := json.Marshal(j)
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := client.Post(workerURL(addr)+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = fmt.Errorf("worker %s: %w", addr, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				errs[i] = fmt.Errorf("worker %s: %s: %s", addr, resp.Status, strings.TrimSpace(string(msg)))
				return
			}
			var p loadgen.Partial
			if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
				errs[i] = fmt.Errorf("worker %s: decoding partial: %w", addr, err)
				return
			}
			parts[i] = &p
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return loadgen.MergePartials(parts)
}

// spawnWorkers self-execs n local workers on loopback ports, scanning
// each one's stdout for the handshake line. The returned stop function
// asks them to quit and reaps the processes; the stdin pipe each worker
// holds guarantees cleanup even if the coordinator dies before calling it.
func spawnWorkers(n int) (addrs []string, stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	type worker struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
		addr  string
	}
	var workers []worker
	stop = func() {
		client := &http.Client{Timeout: 2 * time.Second}
		for _, w := range workers {
			if w.addr != "" {
				resp, err := client.Post(workerURL(w.addr)+"/quit", "text/plain", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
			w.stdin.Close()
		}
		for _, w := range workers {
			done := make(chan struct{})
			go func(c *exec.Cmd) { c.Wait(); close(done) }(w.cmd)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				w.cmd.Process.Kill()
				<-done
			}
		}
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()

	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-worker", "-listen", "127.0.0.1:0", "-exit-on-stdin-close")
		cmd.Stderr = os.Stderr
		stdin, perr := cmd.StdinPipe()
		if perr != nil {
			return nil, stop, perr
		}
		stdout, perr := cmd.StdoutPipe()
		if perr != nil {
			return nil, stop, perr
		}
		if err = cmd.Start(); err != nil {
			return nil, stop, err
		}
		workers = append(workers, worker{cmd: cmd, stdin: stdin})

		addrCh := make(chan string, 1)
		scanErr := make(chan error, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if line := sc.Text(); strings.HasPrefix(line, listenPrefix) {
					addrCh <- strings.TrimPrefix(line, listenPrefix)
					// Keep draining so the worker never blocks on stdout.
					for sc.Scan() {
					}
					return
				}
			}
			scanErr <- fmt.Errorf("worker exited before announcing its address")
		}()
		select {
		case addr := <-addrCh:
			workers[len(workers)-1].addr = addr
			addrs = append(addrs, addr)
		case serr := <-scanErr:
			err = serr
			return nil, stop, err
		case <-time.After(30 * time.Second):
			err = fmt.Errorf("timed out waiting for worker %d to announce its address", i)
			return nil, stop, err
		}
	}
	return addrs, stop, nil
}

// runCoordinator executes the distributed benchmark: shard jobs out,
// merge, optionally verify byte-identity against an in-process single
// run, then write/summarize/gate exactly like the single-process path.
func runCoordinator(job jobSpec, addrs []string, verifySingle bool, out, baseline string, tolerance float64, quiet bool) {
	start := time.Now()
	rep, err := coordinate(job, addrs, nil)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "specbench: coordinator merged %d shards in %v\n",
			len(addrs), time.Since(start).Round(time.Millisecond))
	}

	if verifySingle {
		cfg, err := job.config()
		if err != nil {
			fatal(err)
		}
		cfg.ShardIndex, cfg.ShardCount = 0, 0
		single, err := loadgen.RunReport(cfg, job.WithBaseline)
		if err != nil {
			fatal(err)
		}
		want, err := single.DeterministicJSON()
		if err != nil {
			fatal(err)
		}
		got, err := rep.DeterministicJSON()
		if err != nil {
			fatal(err)
		}
		if !bytes.Equal(want, got) {
			fmt.Fprintf(os.Stderr, "specbench: distributed merge DIVERGED from single-process run:\n--- merged ---\n%s\n--- single ---\n%s\n", got, want)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "specbench: distributed merge byte-identical to single-process run")
	}

	emit(rep, start, out, baseline, tolerance, quiet)
}
