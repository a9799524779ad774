GO ?= go

.PHONY: all build vet lint test race chaos overload bench bench-short \
	bench-smoke specbench bench-run bench-gate bench-baseline \
	bench-scenarios bench-scenarios-baseline \
	bench-restart bench-restart-baseline bench-memory \
	bench-stream bench-stream-baseline bench-distributed bench-module \
	fuzz-checkpoint fuzz-estimator fuzz-wire golden loc clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fast lint pass: gofmt must leave no file behind, then go vet. Kept as
# its own target so CI can fail formatting in seconds, before any build.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test: chaos overload
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection suite: the resilience layer (retry/backoff, circuit
# breaking, deadline propagation, the fault injector itself) and the
# proxy/client failure paths and the chaos trace drive, all under the race
# detector.
chaos:
	$(GO) test -race ./internal/resilience/... \
		-run 'Test' -count=1
	$(GO) test -race ./internal/httpspec/ -count=1 \
		-run 'TestProxyPartialDisseminate|TestProxyServesStaleWhenOriginDown|TestProxyBreakerOpensAndRecovers|TestProxyStripsHopByHopHeaders|TestStripHopByHop|TestChaosReplayAvailability|TestReplaySummaryChaosFieldOptIn|TestClientCountsStaleServes|TestClientRetriesThroughFaults|TestFailedFetchKeepsItsTokens|TestServerDegradationLadder'

# Overload-control suite: the admission controller and governor unit
# tests, the server degradation ladder, and the open-loop acceptance run
# (2x saturation: demand p99 near the no-speculation baseline with >=90%
# of shed work speculative-class), all under the race detector.
overload:
	$(GO) test -race ./internal/overload/... -count=1
	$(GO) test -race ./internal/httpspec/ -count=1 \
		-run 'TestServerAdmissionSheds|TestServerDegradationLadder|TestStatsOmitOverloadWhenDisabled|TestOpenLoopOverloadAcceptance'

# Full 90-day evaluation workload; takes several minutes.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Small workload; seconds.
bench-short:
	$(GO) test -short -bench=. -benchmem -run=^$$ .

# Hot-path micro-benchmarks under the race detector: a fixed iteration
# count (-benchtime=100x) makes this a correctness smoke test of the
# lock-free read path, not a timing run — it catches races and alloc
# regressions cheaply in CI. The refresh, offer/settle, wire-path,
# round-trip, batched and inline prefetch and span benchmarks each fail above
# their own allocs/op ceiling (BenchmarkServeBundle also unless a bundle leaves
# in one Write below the gather bound and piece by piece above it) and run
# without the race detector: under it sync.Pool drops what is put back, and
# the ceiling would blame the code.
bench-smoke:
	$(GO) test -race -run '^$$' -benchtime=100x -cpu 1,4,8 \
		-bench 'BenchmarkEngine(Record|Speculate|Hints)' ./internal/core/
	$(GO) test -run '^$$' -benchtime=20x -benchmem \
		-bench 'BenchmarkEngineRefresh|BenchmarkEngineOfferSettle' ./internal/core/
	$(GO) test -race -run '^$$' -benchtime=5x \
		-bench 'BenchmarkClosureSerial|BenchmarkClosureParallel|BenchmarkFreeze|BenchmarkFrozenThresholdRow' \
		./internal/markov/
	$(GO) test -run '^$$' -benchtime=100x -benchmem \
		-bench 'BenchmarkReadBody|BenchmarkClientIngestBundle|BenchmarkServeBundle|BenchmarkServerRoundTrip|BenchmarkPrefetchBatch|BenchmarkInlineBundle' \
		./internal/httpspec/
	$(GO) test -run '^$$' -benchtime=100x -benchmem -bench 'BenchmarkSpan' ./internal/obs/

# Deterministic load-generation benchmark (cmd/specbench). bench-run
# writes BENCH.json; bench-gate additionally fails on regression against
# the committed baseline; bench-baseline refreshes that baseline (run on
# an idle machine and commit the diff deliberately).
specbench:
	$(GO) build -o bin/specbench ./cmd/specbench

bench-run: specbench
	./bin/specbench -short -o BENCH.json

bench-gate: specbench
	./bin/specbench -short -o BENCH.json -baseline testdata/bench_baseline.json

bench-baseline: specbench
	./bin/specbench -short -o testdata/bench_baseline.json

# Adversarial scenario suite (estguard chaos gate): clean control, the five
# adversarial profiles under guard, and an unguarded crawler arm. The gate
# enforces the structural invariants (guarded crawler interception strictly
# beats unguarded; per-scenario degradation bounds vs clean) and drift
# bounds against the committed baseline suite.
bench-scenarios: specbench
	./bin/specbench -short -scenario-suite -o BENCH-scenarios.json \
		-baseline testdata/scenarios_baseline.json

bench-scenarios-baseline: specbench
	./bin/specbench -short -scenario-suite -o testdata/scenarios_baseline.json

# Kill/restart chaos suite (durability gate): the same workload through an
# uninterrupted control, a warm restart (checkpoint recovery), a cold
# restart, and a warm restart forced through the corrupt-frame fallback
# ladder. The gate enforces the durability invariants (warm recovery
# within 5% of uninterrupted, warm strictly beats cold, corruption falls
# back to last-good, zero dropped demand) plus drift bounds against the
# committed baseline.
bench-restart: specbench
	./bin/specbench -restart -short -o BENCH-restart.json \
		-baseline testdata/restart_baseline.json

bench-restart-baseline: specbench
	./bin/specbench -restart -short -o testdata/restart_baseline.json

# Memory gates. (1) Estimator: a fixed-iteration, deterministic run
# asserting the bounded estimator's analytic footprint stays flat (≤1.1×)
# across a 10× document-cardinality jump while the exact estimator's grows
# multiplicatively; writes the BENCH-memory.json artifact CI uploads.
# (2) Ingestion: the heap a buffered request holds until the refresh that
# folds it, ≤ 24 B at 1,000 clients × 200 requests and ≤ 88 B at
# 100,000 clients × 1.
bench-memory:
	BENCH_MEMORY_OUT=$(CURDIR)/BENCH-memory.json \
		$(GO) test ./internal/markov/ -run TestBoundedMemoryGate -count=1 -v
	$(GO) test ./internal/core/ -run TestIngestionMemory -count=1 -v

# Streaming gate: (1) byte-identity — over a spec × overload cube and two
# worker counts, driving the benchmark from per-client seeded stream
# cursors must produce exactly the deterministic report that materializing
# the same stream produces; (2) the memory bound — at a 100k-client
# population the streamed trace pipeline's peak live heap must stay within
# 0.2× of what materializing the trace costs. Writes the BENCH-stream.json
# artifact; the deterministic fields (request/client counts, cell
# coverage) are gated against the committed baseline.
bench-stream: specbench
	./bin/specbench -stream-gate -o BENCH-stream.json \
		-baseline testdata/stream_baseline.json

bench-stream-baseline: specbench
	./bin/specbench -stream-gate -o testdata/stream_baseline.json

# Distributed smoke: a coordinator self-execs two local workers, ships
# each a disjoint client shard over the HTTP job protocol, merges the
# partial reports, and (-verify-single) requires the merge to be
# byte-identical to running the same config in one process.
bench-distributed: specbench
	./bin/specbench -short -stream -spawn 2 -verify-single \
		-o BENCH-distributed.json

# The benchmark of record is its own module (specweb/benchmark, replace
# specweb => ../), so the root `go build ./... && go test ./...` cannot see
# it: this is where deleting or renaming an internal API it pins fails. ~5 s.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Checkpoint decoder fuzzing: truncated, bit-flipped, and version-skewed
# frames must fail with typed errors, never panic.
fuzz-checkpoint:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 30s ./internal/checkpoint/

# Estimator fuzzing. Bounded: interleaved record/evict/freeze/warm-start
# sequences must never panic, never roll the eviction ledger backwards,
# and every exported v2 frame must re-encode canonically. Exact: the flat
# store must agree with the map-of-maps oracle on counts, occurrences and
# frozen bytes over random streams (a found input is minimized for at most
# 2 s, so the 30 s go to fuzzing).
fuzz-estimator:
	$(GO) test -run '^$$' -fuzz FuzzBoundedEstimator -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzExactAccumulator -fuzztime 30s -fuzzminimizetime 2s ./internal/markov/

# Wire-format fuzzing: the header parsers must degrade garbage to safe
# zeros (Spec-Want to at most the cap of named, known documents, each once;
# Spec-Accept to what its strings.Split reference reads), and the in-place
# bundle walker must never panic, never hand out a
# slice outside its input, and agree with mime/multipart.Reader on
# everything it accepts; the in-place traceparent parser must agree with
# the strings.Split version, and the hint probability with fmt's %.3f.
# The CLF reader behind specbench -trace must never panic, and every
# request it accepts must read back unchanged after WriteCLF.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzParseCLF -fuzztime 15s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 15s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzAppendFixed3 -fuzztime 15s ./internal/httpspec/
	$(GO) test -run '^$$' -fuzz FuzzParsePMilli -fuzztime 15s ./internal/httpspec/
	$(GO) test -run '^$$' -fuzz FuzzIngestAttrib -fuzztime 15s ./internal/httpspec/
	$(GO) test -run '^$$' -fuzz FuzzParseLinkHint -fuzztime 15s ./internal/httpspec/
	$(GO) test -run '^$$' -fuzz FuzzParseWant -fuzztime 15s ./internal/httpspec/
	$(GO) test -run '^$$' -fuzz FuzzParseAccept -fuzztime 15s ./internal/httpspec/
	$(GO) test -run '^$$' -fuzz FuzzWalkBundle -fuzztime 30s ./internal/httpspec/
	$(GO) test -run '^$$' -fuzz FuzzDecodePartial -fuzztime 15s -fuzzminimizetime 10x ./internal/loadgen/

# Non-test, non-blank, non-comment Go lines: the root module and the
# benchmark module (its own go.mod) counted separately.
loc:
	@for m in root benchmark; do \
		if [ $$m = root ]; then \
			files=$$(find . -path ./benchmark -prune -o -path '*/testdata' -prune -o \
				-name '*.go' ! -name '*_test.go' -print); \
		else \
			files=$$(find benchmark -path '*/.bench_build' -prune -o -path '*/testdata' -prune -o \
				-name '*.go' ! -name '*_test.go' -print); \
		fi; \
		printf '%-10s %s\n' $$m "$$(cat $$files | awk ' \
			{ sub(/^[ \t]+/, "") } \
			blk { if ($$0 ~ /\*\//) blk = 0; next } \
			/^\/\*/ { if ($$0 !~ /\*\//) blk = 1; next } \
			/^$$/ || /^\/\// { next } \
			{ n++ } END { print n + 0 }')"; \
	done

# Regenerate the golden files pinning the experiments renderers.
golden:
	$(GO) test ./internal/experiments -run Golden -update

clean:
	$(GO) clean ./...
