//go:build linux

package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/core"
	"specweb/internal/httpspec"
	"specweb/internal/markov"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// The layer replay times the layers that have no seam an outside wrapper
// could hold: it feeds the inputs captured in the traced pass straight
// to their public functions, on one goroutine, and reads allocation
// counts from MemStats deltas. Each figure is a mean over a batch, so the
// clock is read twice per batch, not twice per call.

// replayCap bounds how many captured requests a replay loop consumes;
// decideCalls is about how many decisions the decision loop makes.
const (
	replayCap   = 20000
	decideCalls = 200000
)

// scratchDir is where the replay's checkpoint store lives: inside the
// working directory, because the benchmark writes nowhere else.
const scratchDir = ".bench_build/tmp"

// perCall runs fn and returns nanoseconds and heap allocations per call.
func perCall(calls int, fn func()) (ns, allocs, allocBytes float64) {
	if calls == 0 {
		return 0, 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return float64(elapsed) / n,
		float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

// nullWriter is a ResponseWriter that keeps nothing.
type nullWriter struct{ header http.Header }

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// replayInputs is what the traced pass leaves for the layer replay.
type replayInputs struct {
	w    workload
	wd   *world
	st   *stack // the measured stack, its model trained
	reqs []servedReq
	seed int64
}

func layerReplay(in replayInputs, out map[string]float64) error {
	reqs := in.reqs
	if len(reqs) > replayCap {
		reqs = reqs[:replayCap]
	}
	site := in.wd.site

	// store: path resolution, the call parseHave and every request makes.
	inner := httpspec.NewSiteStore(site)
	out["store.lookup_ns"], _, _ = perCall(len(reqs), func() {
		for i := range reqs {
			inner.Lookup(reqs[i].path)
		}
	})

	// core: the decision on the measured engine (read-only), with the
	// digest already parsed as the server would have it.
	type decision struct {
		doc  webgraph.DocID
		have map[webgraph.DocID]bool
	}
	decisions := make([]decision, 0, len(reqs))
	for i := range reqs {
		id, ok := inner.Lookup(reqs[i].path)
		if !ok {
			continue
		}
		have := map[webgraph.DocID]bool{id: true}
		for _, p := range strings.Fields(reqs[i].have) {
			if h, ok := inner.Lookup(p); ok {
				have[h] = true
			}
		}
		decisions = append(decisions, decision{id, have})
	}
	eng := in.st.srv.Engine()
	mode, err := httpspec.ParseMode(in.w.mode)
	if err != nil {
		return err
	}
	// Enough rounds that the few allocations refilling the decision pool
	// after a collection do not read as a per-decision cost on a short list.
	rounds := 1
	if len(decisions) > 0 {
		rounds += decideCalls / len(decisions)
	}
	candidates := 0
	out["core.decide_ns"], out["core.decide_allocs"], _ = perCall(rounds*len(decisions), func() {
		for r := 0; r < rounds; r++ {
			for i := range decisions {
				d := core.AcquireDecision()
				switch mode {
				case httpspec.ModePush:
					eng.SpeculateInto(d, decisions[i].doc, decisions[i].have)
				case httpspec.ModeHints:
					eng.HintsInto(d, decisions[i].doc, decisions[i].have)
				default:
					eng.SplitInto(d, decisions[i].doc, decisions[i].have)
				}
				candidates += len(d.Push) + len(d.Hints)
				core.ReleaseDecision(d)
			}
		}
	})
	out["core.candidates_per_decide"] = ratio(float64(candidates), float64(rounds*len(decisions)))

	// server: allocations of one ServeHTTP, replayed into the measured
	// server with a writer that keeps nothing.
	httpReqs := make([]*http.Request, 0, len(reqs))
	for i := range reqs {
		r, err := http.NewRequest(http.MethodGet, "http://bench.invalid"+reqs[i].path, nil)
		if err != nil {
			return err
		}
		for k, v := range map[string]string{
			httpspec.HeaderClient:   reqs[i].client,
			httpspec.HeaderHave:     reqs[i].have,
			httpspec.HeaderAttrib:   reqs[i].attrib,
			httpspec.HeaderPrefetch: reqs[i].prefetch,
			httpspec.HeaderAccept:   reqs[i].accept,
		} {
			if v != "" {
				r.Header.Set(k, v)
			}
		}
		httpReqs = append(httpReqs, r)
	}
	nw := &nullWriter{header: make(http.Header)}
	var serveBytes float64
	_, out["server.allocs_per_serve"], serveBytes = perCall(len(httpReqs), func() {
		for _, r := range httpReqs {
			clear(nw.header)
			in.st.srv.ServeHTTP(nw, r)
		}
	})
	out["server.alloc_kb_per_serve"] = serveBytes / 1024

	// core as a writer, and checkpoint: a fresh engine with a durable
	// store records the same requests, refreshes, then checkpoints.
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt, err := checkpoint.NewStore(checkpoint.StoreConfig{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		return err
	}
	cfg := httpspec.DefaultServerConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	cfg.Engine.Checkpoint = ckpt
	cfg.Engine.RefreshEvery = 365 * 24 * time.Hour // longer than any trace here: the one refresh below is explicit
	fresh, err := httpspec.NewServer(inner, cfg)
	if err != nil {
		return err
	}
	writer := fresh.Engine()
	head := in.wd.tr.Requests
	if len(head) > replayCap {
		head = head[:replayCap]
	}
	out["core.record_ns"], _, _ = perCall(len(head), func() {
		for i := range head {
			writer.Record(head[i].Client, head[i].Doc, head[i].Time)
		}
	})
	// An hour on, so that no stride is still open and carried over.
	folded := head[len(head)-1].Time.Add(time.Hour)
	writer.Refresh(folded)
	var saves []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := writer.CheckpointNow(folded); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		saves = append(saves, time.Since(start).Seconds()*1e3)
	}
	out["checkpoint.save_ms"] = median(saves)
	frames, err := filepath.Glob(filepath.Join(dir, "ckpt-*.spw"))
	if err != nil || len(frames) == 0 {
		return fmt.Errorf("checkpoint: no frame written in %s", dir)
	}
	fi, err := os.Stat(frames[len(frames)-1])
	if err != nil {
		return err
	}
	out["checkpoint.frame_kb"] = float64(fi.Size()) / 1024

	// markov: estimate and freeze the warm-up prefix, then cut rows.
	warm := in.wd.tr.Len() * 3 / 10
	prefix := &trace.Trace{Requests: in.wd.tr.Requests[:warm]}
	start := time.Now()
	matrix, err := markov.Estimate(prefix, markov.DefaultEstimate())
	if err != nil {
		return fmt.Errorf("markov estimate: %w", err)
	}
	out["markov.estimate_ms"] = time.Since(start).Seconds() * 1e3
	start = time.Now()
	frozen := markov.Freeze(matrix)
	out["markov.freeze_ms"] = time.Since(start).Seconds() * 1e3
	out["markov.pairs"] = float64(frozen.NumPairs())
	const rowPasses = 50
	docs := site.NumDocs()
	cut := 0
	out["markov.threshold_row_ns"], _, _ = perCall(rowPasses*docs, func() {
		for pass := 0; pass < rowPasses; pass++ {
			for d := 0; d < docs; d++ {
				cut += len(frozen.ThresholdRow(webgraph.DocID(d), 0.25))
			}
		}
	})
	_ = cut

	// attrib: one delivery and its resolution per feedback token seen.
	type fate struct {
		path, class string
		size        int64
		consumed    bool
	}
	var fates []fate
	for i := range reqs {
		for _, tok := range strings.Fields(reqs[i].attrib) {
			parts := strings.SplitN(tok, ":", 3)
			if len(parts) != 3 {
				continue
			}
			if d := site.ByPath(parts[2]); d != nil {
				fates = append(fates, fate{parts[2], parts[1], d.Size, parts[0] == "c"})
			}
		}
	}
	if len(fates) == 0 { // a workload that speculated nothing: time the ledger on its demand paths
		for i := range decisions {
			fates = append(fates, fate{reqs[i].path, attrib.ClassPush, site.Doc(decisions[i].doc).Size, i%2 == 0})
		}
	}
	led := attrib.NewLedger(2*docs, obs.NewRegistry())
	out["attrib.record_resolve_ns"], _, _ = perCall(len(fates), func() {
		for _, f := range fates {
			led.Delivered(f.path, f.class, f.size, 500, "")
			if f.consumed {
				led.Consumed(f.path, f.class, f.size)
			} else {
				led.Wasted(f.path, f.class, f.size)
			}
		}
	})

	// obs: a request span with one attribute and one child, as the server
	// opens them, and one counter increment.
	const obsCalls = 100000
	tracer := obs.NewTracer(64)
	parent := tracer.Start("client.get").Traceparent()
	spanNS, _, _ := perCall(obsCalls, func() {
		for i := 0; i < obsCalls; i++ {
			sp := tracer.StartRemote("server.request", parent)
			sp.SetAttr("path", "/bench")
			child := tracer.StartChild("server.speculate", sp)
			child.Finish()
			sp.Finish()
		}
	})
	out["obs.span_ns"] = spanNS / 2
	counter := obs.NewRegistry().Counter("bench_layer_replay_total", "Layer replay probe.", nil)
	out["obs.counter_inc_ns"], _, _ = perCall(10*obsCalls, func() {
		for i := 0; i < 10*obsCalls; i++ {
			counter.Inc()
		}
	})

	// overload: an uncontended admit and release.
	ctrl := overload.NewController(overload.Config{DemandSlots: 8 * workers, Metrics: obs.NewRegistry()})
	ctx := context.Background()
	var admitErr error
	out["overload.acquire_release_ns"], _, _ = perCall(obsCalls, func() {
		for i := 0; i < obsCalls; i++ {
			release, err := ctrl.Acquire(ctx, overload.Demand)
			if err != nil {
				admitErr = err
				return
			}
			release()
		}
	})
	if admitErr != nil {
		return fmt.Errorf("overload: %w", admitErr)
	}

	// synth and trace: per-client cursor generation, and the k-way merge
	// alone over the already materialized per-client slices.
	stream, err := synth.NewStream(in.wd.scfg, in.seed)
	if err != nil {
		return fmt.Errorf("synth stream: %w", err)
	}
	events := 0
	start = time.Now()
	for _, c := range stream.Cursors() {
		for {
			if _, ok := c.Next(); !ok {
				break
			}
			events++
		}
	}
	out["synth.cursor_next_ns"] = ratio(float64(time.Since(start)), float64(events))
	var cursors []trace.ClientCursor
	for id, rs := range in.wd.tr.ByClient() {
		cursors = append(cursors, &trace.SliceCursor{ID: id, Reqs: rs})
	}
	merged := trace.MergeCursors(cursors)
	events = 0
	start = time.Now()
	for {
		if _, ok := merged.Next(); !ok {
			break
		}
		events++
	}
	out["trace.merge_next_ns"] = ratio(float64(time.Since(start)), float64(events))
	return nil
}
