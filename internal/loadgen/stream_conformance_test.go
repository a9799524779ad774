package loadgen

import (
	"bytes"
	"fmt"
	"testing"

	"specweb/internal/leakcheck"
)

// streamConfig is the cube cell config with the streamed drive enabled.
func streamConfig(spec, chaos, over bool) Config {
	cfg := cellConfig(spec, chaos, over)
	cfg.Stream = true
	return cfg
}

// deterministicBytes runs cfg and returns the deterministic JSON with
// the worker count normalized out (it is config echo, not behavior).
func deterministicBytes(t *testing.T, cfg Config, workers int) []byte {
	t.Helper()
	cfg.Workers = workers
	rep, err := RunReport(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	rep.Config.Workers = 0
	b, err := rep.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamConformanceCube is the tentpole identity: over the full
// spec × chaos × overload cube, driving the workload from per-client
// seeded cursors produces a deterministic report byte-identical to
// materializing the very same stream and running the classic path.
// Fault-free cells are additionally checked across worker counts (1 vs
// 16); chaos cells compare at a single worker, where both paths consume
// the injector's fault stream in the same order.
func TestStreamConformanceCube(t *testing.T) {
	leakcheck.Check(t)
	for _, spec := range []bool{false, true} {
		for _, chaos := range []bool{false, true} {
			for _, over := range []bool{false, true} {
				name := fmt.Sprintf("spec=%v/chaos=%v/overload=%v", spec, chaos, over)
				t.Run(name, func(t *testing.T) {
					oracle := streamConfig(spec, chaos, over)
					oracle.StreamMaterialize = true
					if chaos {
						want := deterministicBytes(t, oracle, 1)
						got := deterministicBytes(t, streamConfig(spec, chaos, over), 1)
						if !bytes.Equal(want, got) {
							t.Errorf("streamed chaos run diverged from materialized oracle:\n%s\n--- vs ---\n%s", got, want)
						}
						return
					}
					want := deterministicBytes(t, oracle, 3)
					for _, workers := range []int{1, 16} {
						got := deterministicBytes(t, streamConfig(spec, chaos, over), workers)
						if !bytes.Equal(want, got) {
							t.Errorf("streamed run (workers=%d) diverged from materialized oracle:\n%s\n--- vs ---\n%s",
								workers, got, want)
						}
					}
				})
			}
		}
	}
}

// TestStreamOpenLoopConformance pins the paced-arrival drive: the
// streamed dispatcher walks the canonical merge with bounded channels
// instead of materialized queues, and the deterministic section must not
// notice.
func TestStreamOpenLoopConformance(t *testing.T) {
	leakcheck.Check(t)
	base := streamConfig(true, false, false)
	base.OpenLoop = true
	base.Rate = 50000
	base.Burst = 8

	oracle := base
	oracle.StreamMaterialize = true
	want := deterministicBytes(t, oracle, 3)
	got := deterministicBytes(t, base, 5)
	if !bytes.Equal(want, got) {
		t.Errorf("streamed open loop diverged from materialized oracle:\n%s\n--- vs ---\n%s", got, want)
	}
}

// TestStreamAgainstMaterializedWorkload documents the one intended
// divergence: the streamed generator's per-client Poisson superposition
// is a different (statistically equivalent) trace than synth.Generate's
// global schedule, so Stream=true is an opt-in workload, not a drop-in
// byte-identical replacement for the legacy path.
func TestStreamAgainstMaterializedWorkload(t *testing.T) {
	stream := deterministicBytes(t, streamConfig(true, false, false), 3)
	legacy := deterministicBytes(t, cellConfig(true, false, false), 3)
	if bytes.Equal(stream, legacy) {
		t.Fatal("streamed and legacy workloads were byte-identical; the generators should be distinct processes")
	}
}

// shardedReport runs the config split into shards partials and merges.
func shardedReport(t *testing.T, cfg Config, shards int, withBaseline bool) *Report {
	t.Helper()
	var parts []*Partial
	for i := 0; i < shards; i++ {
		c := cfg
		c.ShardIndex = i
		c.ShardCount = shards
		p, err := RunPartial(c, withBaseline)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	rep, err := MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestShardMergeIdentity is the distributed identity: partition the
// client population into shards, run each shard as its own partial
// (full warmup, shard-only measurement), and the coordinator's merge
// must be byte-identical — counts, ratios, attribution, overload ledger
// — to the single-process report. Checked for both the materialized and
// the streamed drive, with baseline arm and overload control on so
// every merge path is exercised.
func TestShardMergeIdentity(t *testing.T) {
	leakcheck.Check(t)
	for _, streamed := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", streamed), func(t *testing.T) {
			cfg := cellConfig(true, false, true)
			cfg.Stream = streamed

			single, err := RunReport(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := single.DeterministicJSON()

			one := shardedReport(t, cfg, 1, true)
			got1, _ := one.DeterministicJSON()
			if !bytes.Equal(want, got1) {
				t.Errorf("merge of one partial diverged from direct run:\n%s\n--- vs ---\n%s", got1, want)
			}

			three := shardedReport(t, cfg, 3, true)
			got3, _ := three.DeterministicJSON()
			if !bytes.Equal(want, got3) {
				t.Errorf("3-shard merge diverged from single-process run:\n%s\n--- vs ---\n%s", got3, want)
			}
		})
	}
}

// TestValidateModes pins the rejected combinations: sharded runs exclude
// the per-process state that cannot merge. The source never restricts the
// drive, so a streamed restart run validates.
func TestValidateModes(t *testing.T) {
	bad := []Config{
		{ShardIndex: 1, ShardCount: 0},
		{ShardIndex: 2, ShardCount: 2},
		{ShardCount: 2, Estguard: true},
		{ShardCount: 2, MaxRows: 10},
		{ShardCount: 2, BaseURL: "http://example.invalid"},
		{ShardCount: 2, RealClock: true},
	}
	for i, cfg := range bad {
		if err := cfg.validateModes(); err == nil {
			t.Errorf("case %d: config %+v unexpectedly validated", i, cfg)
		}
	}
	for _, ok := range []Config{
		{Stream: true, ShardIndex: 1, ShardCount: 2},
		{Stream: true, Restart: &RestartConfig{}},
	} {
		if err := ok.validateModes(); err != nil {
			t.Errorf("config %+v rejected: %v", ok, err)
		}
	}
}
