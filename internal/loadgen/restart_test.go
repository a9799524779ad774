package loadgen

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"specweb/internal/leakcheck"
)

// TestRestartSuiteInvariants runs the full four-arm kill/restart suite
// on the tiny workload and enforces the durability acceptance criteria:
// warm recovery within the slack of uninterrupted, warm strictly beats
// cold, the corrupt arm falls back to last-good, and no arm drops
// demand traffic.
func TestRestartSuiteInvariants(t *testing.T) {
	leakcheck.Check(t)
	rep, err := RunRestartSuite(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckRestartInvariants(rep); len(v) > 0 {
		t.Fatalf("invariants violated:\n  %s", strings.Join(v, "\n  "))
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
	// Sanity on the shape the invariants rely on: the crash actually
	// cost the cold arm speculation it had before.
	cold := rep.Cold.Restart
	if cold.Phase1.Interception <= cold.Phase2.Interception {
		t.Fatalf("cold crash did not hurt interception: phase1 %.4f, phase2 %.4f",
			cold.Phase1.Interception, cold.Phase2.Interception)
	}
	// A self-comparison passes the regression gate.
	if v := CompareRestart(rep, rep, 10); len(v) > 0 {
		t.Fatalf("self-compare violations: %v", v)
	}
}

// TestRestartDeterministicAcrossWorkers: the restart arms' counters and
// checkpoint ledgers must not depend on the worker count.
func TestRestartDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		cfg := tinyConfig()
		cfg.Workers = workers
		cfg.Restart = &RestartConfig{Mode: RestartWarm}
		return mustRun(t, cfg)
	}
	a, b := run(1), run(6)
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatalf("counts depend on workers:\n%+v\n%+v", a.Counts, b.Counts)
	}
	if !reflect.DeepEqual(a.Restart, b.Restart) {
		t.Fatalf("restart ledger depends on workers:\n%+v\n%+v", a.Restart, b.Restart)
	}
	if !reflect.DeepEqual(a.Checkpoint, b.Checkpoint) {
		t.Fatalf("checkpoint counters depend on workers:\n%+v\n%+v", a.Checkpoint, b.Checkpoint)
	}
}

// TestRestartOffLeavesReportUntouched: without the harness the report
// carries no checkpoint or restart sections at all — the serialized
// form is what it was before the feature existed.
func TestRestartOffLeavesReportUntouched(t *testing.T) {
	res := mustRun(t, tinyConfig())
	if res.Checkpoint != nil || res.Restart != nil {
		t.Fatalf("plain run grew restart state: ckpt=%+v restart=%+v",
			res.Checkpoint, res.Restart)
	}
	rep := &Report{Schema: ReportSchema, Spec: res}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"checkpoint", "restart"} {
		if strings.Contains(string(data), `"`+key+`"`) {
			t.Fatalf("plain report serializes %q section", key)
		}
	}
}

// TestCompareRestartFlagsDrift: the gate notices a doctored report.
func TestCompareRestartFlagsDrift(t *testing.T) {
	cfg := tinyConfig()
	cfg.Restart = &RestartConfig{Mode: RestartWarm}
	res := mustRun(t, cfg)
	rep := &RestartReport{
		Schema: RestartSchema, Uninterrupted: res, Warm: res, Cold: res, CorruptFallback: res,
	}
	bad := *res
	badRestart := *res.Restart
	badRestart.Phase2.SpecHits *= 3
	bad.Restart = &badRestart
	doctored := *rep
	doctored.Warm = &bad
	if v := CompareRestart(rep, &doctored, 10); len(v) == 0 {
		t.Fatal("gate missed a 3x spec-hit drift")
	}
}

// TestRestartConfigValidation: modes and incompatible run shapes.
func TestRestartConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Restart = &RestartConfig{Mode: "lukewarm"}
	if _, _, _, err := Run(cfg); err == nil {
		t.Fatal("unknown mode accepted")
	}
	cfg = tinyConfig()
	cfg.Restart = &RestartConfig{Mode: RestartCold, CorruptNewest: true}
	if _, _, _, err := Run(cfg); err == nil {
		t.Fatal("corrupt_newest without warm mode accepted")
	}
	cfg = tinyConfig()
	cfg.Restart = &RestartConfig{Mode: RestartWarm}
	cfg.OpenLoop, cfg.Rate = true, 100
	if _, _, _, err := Run(cfg); err == nil {
		t.Fatal("open-loop restart accepted")
	}
	cfg = tinyConfig()
	cfg.Restart = &RestartConfig{Mode: RestartWarm}
	cfg.BaseURL = "http://example.invalid"
	if _, _, _, err := Run(cfg); err == nil {
		t.Fatal("network-mode restart accepted")
	}
}

// TestRestartStreamConformance: the restart harness rides the same lanes
// whichever source feeds them, so each crashing arm driven from
// per-client cursors must reproduce — byte for byte in the deterministic
// section, phase ledgers and checkpoint counters included — the same arm
// driven from the materialized form of that stream, at any worker count.
func TestRestartStreamConformance(t *testing.T) {
	leakcheck.Check(t)
	for _, arm := range []struct {
		name string
		rc   RestartConfig
	}{
		{"warm", RestartConfig{Mode: RestartWarm}},
		{"cold", RestartConfig{Mode: RestartCold}},
		{"corrupt-fallback", RestartConfig{Mode: RestartWarm, CorruptNewest: true}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := streamConfig(true, false, false)
			cfg.Restart = &arm.rc
			oracle := cfg
			oracle.StreamMaterialize = true
			want := deterministicBytes(t, oracle, 3)
			if !bytes.Contains(want, []byte(`"phase2"`)) {
				t.Fatalf("oracle report carries no restart ledger:\n%s", want)
			}
			for _, workers := range []int{1, 16} {
				if got := deterministicBytes(t, cfg, workers); !bytes.Equal(want, got) {
					t.Errorf("streamed restart (workers=%d) diverged from materialized oracle:\n%s\n--- vs ---\n%s",
						workers, got, want)
				}
			}
		})
	}
}
