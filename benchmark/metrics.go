//go:build linux

package main

// metricDef names one metric. BENCHMARK.json is generated from these
// tables (-manifest) and README.md documents them; bench_test.go holds
// the three together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	doc    string
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them from untraced passes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"generate site and trace, build the stack, warm on the leading 30 % of the trace, refresh; median of the set-ups in a run"},
	{"replay_rps", "1/s", "higher", 0.25,
		"trace requests (client cache hits included) completed per wall second, from the first quartile over passes of the wall time of a pass. On the open loop this is the achieved rate"},
	{"demand_p50_ms", "ms", "lower", 0.25,
		"wall time of Client.Get for requests not served from the client cache, synchronous prefetches included; open loop: from the due time. Median within a pass, first quartile over passes"},
	{"demand_p90_ms", "ms", "lower", 0.25,
		"as demand_p50_ms, 90th percentile within a pass, first quartile over passes: the highest percentile that repeats on the open loop (client.get_p99_ms is the 99th)"},
	{"cpu_us_per_req", "us", "lower", 0.25,
		"getrusage user+system time of the process per trace request; first quartile over passes. The capacity proxy at a fixed rate"},
	{"heap_live_mb", "MB", "lower", 0.10,
		"HeapAlloc after a forced collection at the end of the speculative arm's second pass: both arms' stacks alive, that arm's client caches still populated"},
	{"bandwidth_ratio", "ratio", "lower", 0.07,
		"bytes received by clients in one pass, speculative arm / baseline arm"},
	{"server_load_ratio", "ratio", "lower", 0.07,
		"HTTP requests that reached Server.ServeHTTP in one pass, speculative arm / baseline arm, counted by the harness's handler wrapper"},
	{"byte_miss_ratio", "ratio", "lower", 0.07,
		"requested-document bytes fetched over the wire in one pass, speculative arm / baseline arm"},
	{"service_time_ratio", "ratio", "lower", 0.25,
		"mean time in Client.Get over all requests of a pass (cache hits included), first quartile over passes; speculative arm / baseline arm, whose passes alternate"},
	{"refresh_p50_ms", "ms", "lower", 0.25,
		"wall time of a request during which the engine completed a refresh: in the measured epochs of learn-online, in the warm-ups of the frozen workloads; each refresh at the first quartile over the epochs or warm-ups of a run, median over the refreshes of one"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// They have no bound. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{name: "synth.generate_s", unit: "s", better: "lower", doc: "site, topology and trace generation in one set-up"},
	{name: "synth.cursor_next_ns", unit: "ns", better: "lower", doc: "one event from a per-client stream cursor (layer replay)"},
	{name: "trace.merge_next_ns", unit: "ns", better: "lower", doc: "one event through the k-way merge over materialized per-client slices (layer replay)"},

	{name: "client.get_us", unit: "us", better: "lower", doc: "mean Client.Get per request in the traced pass; the per-request self times below sum to it"},
	{name: "client.get_p99_ms", unit: "ms", better: "lower", doc: "99th percentile within a pass of the demand latencies, first quartile over the untraced passes; not gated, because on coop-wire it sits where the host's stalls and the collector's cycles begin to show and reads 1.2 to 2.7 ms over ten seeds"},
	{name: "client.get_self_us", unit: "us", better: "lower", doc: "per request: Client.Get minus its round trips and body reads"},
	{name: "client.allocs_per_get", unit: "count", better: "lower", doc: "heap allocations per request outside Server.ServeHTTP: process total minus server.allocs_per_serve per serve"},
	{name: "client.digest_bytes_per_get", unit: "B", better: "lower", doc: "Spec-Have header bytes per round trip"},
	{name: "client.cache_hit_frac", unit: "ratio", better: "higher", doc: "requests served from the client cache"},
	{name: "client.spec_hit_frac", unit: "ratio", better: "higher", doc: "requests served by a speculatively delivered document"},
	{name: "client.prefetch_per_req", unit: "count", better: "lower", doc: "hint-driven prefetches per request"},

	{name: "transport.roundtrips_per_req", unit: "count", better: "lower", doc: "requests reaching the server per trace request"},
	{name: "transport.roundtrip_self_us", unit: "us", better: "lower", doc: "per request: RoundTrip minus the handler; about 0 in-process by construction"},
	{name: "transport.body_self_us", unit: "us", better: "lower", doc: "per request: time inside response-body Read calls"},
	{name: "transport.req_header_bytes", unit: "B", better: "lower", doc: "request header bytes per round trip"},
	{name: "transport.resp_header_bytes", unit: "B", better: "lower", doc: "response header bytes per round trip"},
	{name: "transport.resp_body_kb", unit: "KB", better: "lower", doc: "response body per round trip"},

	{name: "overload.acquire_release_ns", unit: "ns", better: "lower", doc: "uncontended Controller.Acquire plus release (layer replay)"},
	{name: "overload.queued_frac", unit: "ratio", better: "lower", doc: "demand admissions that waited in the queue"},
	{name: "overload.shed_frac", unit: "ratio", better: "lower", doc: "demand admissions rejected"},

	{name: "server.serve_us", unit: "us", better: "lower", doc: "mean Server.ServeHTTP"},
	{name: "server.serve_self_us", unit: "us", better: "lower", doc: "per request: ServeHTTP minus Store.Content and body writes"},
	{name: "server.write_self_us", unit: "us", better: "lower", doc: "per request: time inside ResponseWriter.Write"},
	{name: "server.allocs_per_serve", unit: "count", better: "lower", doc: "heap allocations of one ServeHTTP (layer replay)"},
	{name: "server.alloc_kb_per_serve", unit: "KB", better: "lower", doc: "heap bytes allocated by one ServeHTTP (layer replay)"},
	{name: "server.write_calls_per_resp", unit: "count", better: "lower", doc: "ResponseWriter.Write calls per response"},
	{name: "server.hints_per_resp", unit: "count", better: "lower", doc: "Link prefetch hints per response"},
	{name: "server.pushed_per_resp", unit: "count", better: "lower", doc: "documents pushed per response"},
	{name: "server.bundle_frac", unit: "ratio", better: "lower", doc: "responses that were multipart bundles"},

	{name: "store.content_us", unit: "us", better: "lower", doc: "mean Store.Content call"},
	{name: "store.content_self_us", unit: "us", better: "lower", doc: "per request: time inside Store.Content"},
	{name: "store.content_calls_per_serve", unit: "count", better: "lower", doc: "Store.Content calls per serve"},
	{name: "store.render_frac", unit: "ratio", better: "lower", doc: "Content calls returning a freshly rendered body, detected by slice identity"},
	{name: "store.lookups_per_serve", unit: "count", better: "lower", doc: "Store.Lookup calls per serve (digest parsing included)"},
	{name: "store.lookup_ns", unit: "ns", better: "lower", doc: "one Store.Lookup (layer replay)"},

	{name: "core.record_ns", unit: "ns", better: "lower", doc: "one Engine.Record (layer replay)"},
	{name: "core.decide_ns", unit: "ns", better: "lower", doc: "one pooled decision in the workload's mode (layer replay)"},
	{name: "core.decide_allocs", unit: "count", better: "lower", doc: "heap allocations per decision; must stay 0"},
	{name: "core.candidates_per_decide", unit: "count", better: "lower", doc: "pushes plus hints per decision"},
	{name: "core.refresh_p50_ms", unit: "ms", better: "lower", doc: "as refresh_p50_ms, from this run's single set-up or traced epoch"},
	{name: "core.refresh_max_ms", unit: "ms", better: "lower", doc: "slowest refresh-crossing request"},
	{name: "core.refreshes", unit: "count", better: "lower", doc: "engine refreshes inside one measured pass; 0 on the frozen workloads"},

	{name: "markov.estimate_ms", unit: "ms", better: "lower", doc: "markov.Estimate over the leading 30 % of the trace (layer replay)"},
	{name: "markov.freeze_ms", unit: "ms", better: "lower", doc: "markov.Freeze of that estimate"},
	{name: "markov.pairs", unit: "count", better: "lower", doc: "successor pairs in the frozen estimate"},
	{name: "markov.threshold_row_ns", unit: "ns", better: "lower", doc: "one Frozen.ThresholdRow at 0.25"},

	{name: "attrib.record_resolve_ns", unit: "ns", better: "lower", doc: "one Ledger.Delivered plus its Consumed or Wasted (layer replay)"},
	{name: "attrib.deliveries_per_req", unit: "count", better: "lower", doc: "speculative deliveries recorded per request in the measured phase"},
	{name: "attrib.consumed_frac", unit: "ratio", better: "higher", doc: "consumed / delivered speculative bytes in the measured phase: one minus the waste"},

	{name: "obs.span_ns", unit: "ns", better: "lower", doc: "one tracer span, start to finish (layer replay)"},
	{name: "obs.counter_inc_ns", unit: "ns", better: "lower", doc: "one counter increment (layer replay)"},

	{name: "checkpoint.save_ms", unit: "ms", better: "lower", doc: "Engine.CheckpointNow into a scratch store; times this machine's disk"},
	{name: "checkpoint.frame_kb", unit: "KB", better: "lower", doc: "size of the frame it wrote"},

	{name: "runtime.allocs_per_req", unit: "count", better: "lower", doc: "process heap allocations per request; first quartile over untraced passes"},
	{name: "runtime.alloc_kb_per_req", unit: "KB", better: "lower", doc: "process heap bytes allocated per request"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", doc: "collector CPU / process CPU over the untraced passes"},
	{name: "runtime.gc_pause_max_ms", unit: "ms", better: "lower", doc: "longest stop-the-world pause inside an untraced pass"},

	{name: "harness.overhead_us_per_req", unit: "us", better: "lower", doc: "CPU per request of the driver alone, against a stub that returns the expected body"},
	{name: "harness.worker_idle_frac", unit: "ratio", better: "lower", doc: "worker time not spent in requests: imbalance (closed loop) or waiting for due times (open loop)"},
	{name: "harness.late_p99_ms", unit: "ms", better: "lower", doc: "open loop: 99th percentile of how long after its due time a request started while its connection was free, first quartile over passes; above 1 the run fails"},
	{name: "harness.trace_overhead_frac", unit: "ratio", better: "lower", doc: "CPU per request of the traced pass over that of the untraced passes (their first quartile), minus 1"},
	{name: "harness.failed_frac", unit: "ratio", better: "lower", doc: "errors, sheds and wrong bodies / attempted; must stay 0"},
	{name: "harness.passes", unit: "count", better: "higher", doc: "untraced passes this run measured"},
	{name: "harness.stolen_frac", unit: "ratio", better: "lower", doc: "stolen / (busy + stolen) CPU ticks from /proc/stat during a pass, median over passes: how much of the time asked for the hypervisor gave to another guest. Reported, never used to pick passes"},
}
