//go:build linux

package main

import (
	"fmt"
	"math"
	"os"

	"specweb/internal/attrib"
	"specweb/internal/httpspec"
	"specweb/internal/webgraph"
)

// layerCounts carries the whole-phase counters the per-layer metrics
// normalise: taken by runWorkload around the measured passes and the traced one.
type layerCounts struct {
	generateS float64
	refreshNS []int64 // ascending
	srv       serverTotals
	led       ledgerTotals
	req       int64 // requests issued while srv and led accumulated
}

func totalsOf(r *attrib.Report) ledgerTotals {
	if r == nil {
		return ledgerTotals{}
	}
	return ledgerTotals{r.Totals.Deliveries, r.Totals.DeliveredBytes, r.Totals.ConsumedBytes}
}

// perLayerMetrics fills rep.PerLayer from the traced pass's spans and
// counts, the untraced passes' resource deltas, and the layer replay.
func perLayerMetrics(rep *report, o options, spec *arm, tr traced, lc layerCounts) error {
	w, wd := spec.w, spec.wd
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	out["synth.generate_s"] = lc.generateS

	// The cost ledger: per-request self time of every wrapped boundary.
	led := tr.ledger
	req := float64(tr.seg.req)
	selfUS := func(kind int) float64 { return float64(led[kind].SelfNS) / 1e3 / req }
	meanUS := func(kind int) float64 { return ratio(float64(led[kind].DurNS)/1e3, float64(led[kind].Count)) }
	out["client.get_us"] = float64(led[kindGet].DurNS) / 1e3 / req
	out["client.get_self_us"] = selfUS(kindGet)
	out["transport.roundtrip_self_us"] = selfUS(kindRoundTrip)
	out["transport.body_self_us"] = selfUS(kindBody)
	out["server.serve_self_us"] = selfUS(kindServe)
	out["server.write_self_us"] = selfUS(kindWrite)
	out["store.content_self_us"] = selfUS(kindContent)
	out["server.serve_us"] = meanUS(kindServe)
	out["store.content_us"] = meanUS(kindContent)
	rep.Ledger = make(map[string]kindTotals, numKinds)
	var selfSum int64
	for k, t := range led {
		rep.Ledger[kindNames[k]] = t
		selfSum += t.SelfNS
	}
	gap := math.Abs(ratio(float64(selfSum), float64(led[kindGet].DurNS)) - 1)
	rep.check("spans_complete", tr.drops == 0 && led[kindGet].Count == tr.seg.req,
		"%d spans dropped, %d client.get spans for %d requests", tr.drops, led[kindGet].Count, tr.seg.req)
	rep.check("ledger_sums_to_get", gap <= 0.02, "self times sum to %.4f of client.get time", 1-gap)

	// Counts taken at the same boundaries during the traced pass.
	p := tr.counts
	trips := float64(p.roundTrips.Load())
	serves := float64(led[kindServe].Count)
	out["transport.req_header_bytes"] = ratio(float64(p.reqHeaderBytes.Load()), trips)
	out["transport.resp_header_bytes"] = ratio(float64(p.respHeaderBytes.Load()), trips)
	out["transport.resp_body_kb"] = ratio(float64(p.respBodyBytes.Load())/1024, trips)
	out["client.digest_bytes_per_get"] = ratio(float64(p.digestBytes.Load()), trips)
	out["server.write_calls_per_resp"] = ratio(float64(p.writeCalls.Load()), serves)
	out["store.content_calls_per_serve"] = ratio(float64(p.contentCalls.Load()), serves)
	out["store.render_frac"] = ratio(float64(p.renders.Load()), float64(p.contentCalls.Load()))
	out["store.lookups_per_serve"] = ratio(float64(p.lookups.Load()), serves)

	// Deterministic counts of one pass.
	if c := rep.Counts; c != nil {
		n := float64(c.Req)
		out["client.cache_hit_frac"] = float64(c.CacheHits) / n
		out["client.spec_hit_frac"] = float64(c.SpecHits) / n
		out["client.prefetch_per_req"] = float64(c.Prefetched) / n
		out["transport.roundtrips_per_req"] = float64(c.Serves) / n
	}
	out["server.hints_per_resp"] = ratio(float64(lc.srv.hints), float64(lc.srv.serves))
	out["server.pushed_per_resp"] = ratio(float64(lc.srv.pushed), float64(lc.srv.serves))
	out["server.bundle_frac"] = ratio(float64(lc.srv.bundles), float64(lc.srv.serves))
	out["attrib.deliveries_per_req"] = ratio(float64(lc.led.deliveries), float64(lc.req))
	out["attrib.consumed_frac"] = ratio(float64(lc.led.consumedBytes), float64(lc.led.deliveredBytes))
	if ctl := spec.st.admission; ctl != nil {
		d := ctl.Stats().Demand
		out["overload.queued_frac"] = ratio(float64(d.Queued), float64(d.Admitted+d.Rejected))
		out["overload.shed_frac"] = ratio(float64(d.Rejected), float64(d.Admitted+d.Rejected))
	}

	refresh := lc.refreshNS
	out["core.refresh_p50_ms"] = float64(quantile(refresh, 0.5)) / 1e6
	out["core.refresh_max_ms"] = float64(quantile(refresh, 1)) / 1e6
	out["core.refreshes"] = float64(spec.refreshes)

	// Resource deltas of the untraced passes.
	segs := spec.segs
	out["client.get_p99_ms"] = overSegments(segs, func(s *segment) float64 { return float64(quantile(s.demand, 0.99)) / 1e6 })
	out["runtime.allocs_per_req"] = overSegments(segs, func(s *segment) float64 { return float64(s.mallocs) / float64(s.req) })
	out["runtime.alloc_kb_per_req"] = overSegments(segs, func(s *segment) float64 { return float64(s.allocBytes) / 1024 / float64(s.req) })
	var gcCPU, cpu, wall, idle, pause float64
	for i := range segs {
		gcCPU += segs[i].gcCPUs
		cpu += seconds(segs[i].cpuNS)
		wall += seconds(segs[i].wallNS)
		idle += seconds(segs[i].idleNS)
		pause = math.Max(pause, float64(segs[i].gcPauseMax)/1e6)
	}
	drivers := float64(workers)
	if w.online {
		drivers = 1
	}
	out["runtime.gc_cpu_frac"] = ratio(gcCPU, cpu)
	out["runtime.gc_pause_max_ms"] = pause
	out["harness.worker_idle_frac"] = ratio(idle, wall*drivers)
	out["harness.late_p99_ms"] = overSegments(segs, latePercentileMS)
	out["harness.failed_frac"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	out["harness.passes"] = float64(len(segs))
	stolen := make([]float64, len(segs))
	for i := range segs {
		stolen[i] = segs[i].stolenFrac
	}
	out["harness.stolen_frac"] = median(stolen) // of a disturbance, the typical pass, not the calm one
	out["harness.trace_overhead_frac"] = ratio(cpuPerReq(&tr.seg), overSegments(segs, cpuPerReq)) - 1

	if err := layerReplay(replayInputs{w: w, wd: wd, st: spec.st, reqs: tr.reqs, seed: o.seed}, out); err != nil {
		return err
	}
	out["client.allocs_per_get"] = out["runtime.allocs_per_req"] -
		out["server.allocs_per_serve"]*out["transport.roundtrips_per_req"]
	rep.check("decide_alloc_free", out["core.decide_allocs"] < 0.01,
		"core.decide_allocs = %.4f per decision", out["core.decide_allocs"])

	// The driver alone, on a fresh stack it never calls.
	stub, err := stubBodies(wd.site)
	if err != nil {
		return err
	}
	idleStack, err := buildStack(w, wd, true)
	if err != nil {
		return err
	}
	d := &driver{wd: wd, st: idleStack, stub: stub}
	alone := d.closedSegment(wd.warmN, wd.tr.Len())
	if err := idleStack.close(); err != nil {
		return err
	}
	out["harness.overhead_us_per_req"] = cpuPerReq(&alone)

	rep.PerLayer = out
	if o.traceOut != "" {
		return writeSpanFile(o.traceOut, tr.spans)
	}
	return nil
}

// stubBodies renders every document once, for the driver-only run.
func stubBodies(site *webgraph.Site) ([][]byte, error) {
	store := httpspec.NewSiteStoreCached(site, 0)
	bodies := make([][]byte, site.NumDocs())
	for i := range bodies {
		b, ok := store.Content(webgraph.DocID(i))
		if !ok {
			return nil, fmt.Errorf("document %d has no content", i)
		}
		bodies[i] = b
	}
	return bodies, nil
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
