package loadgen

import (
	"bytes"
	"fmt"
	"testing"

	"specweb/internal/leakcheck"
)

// scenarioCellConfig builds one cell of the adversarial conformance
// matrix: the tiny workload stretched to four days so the warmup phase
// crosses at least one estimator refresh (classification and drift
// scoring only act at refresh boundaries).
func scenarioCellConfig(scenario string, guard bool) Config {
	cfg := tinyConfig()
	cfg.Workload.Days = 4
	cfg.Workload.SessionsPerDay = 40
	cfg.Workload.Scenario = scenario
	cfg.Estguard = guard
	return cfg
}

// TestScenarioConformanceMatrix extends the determinism conformance matrix
// with the adversarial scenario × estguard cube. For every cell the
// single-worker and 16-worker runs must produce byte-identical
// deterministic reports: quarantine decisions, drift scores, and snapshot
// judgments are all functions of the refresh-time client runs (sorted by
// client before any guard mutation), so no shard interleaving may change
// them.
func TestScenarioConformanceMatrix(t *testing.T) {
	leakcheck.Check(t)
	scenarios := []string{"", "flash-crowd", "diurnal", "crawler", "long-tail-scan", "multi-tenant"}
	for _, sc := range scenarios {
		for _, guard := range []bool{false, true} {
			label := sc
			if label == "" {
				label = "clean"
			}
			t.Run(fmt.Sprintf("%s/estguard=%v", label, guard), func(t *testing.T) {
				serial := scenarioCellConfig(sc, guard)
				serial.Workers = 1
				rep1, err := RunReport(serial, false)
				if err != nil {
					t.Fatal(err)
				}
				wide := scenarioCellConfig(sc, guard)
				wide.Workers = 16
				rep16, err := RunReport(wide, false)
				if err != nil {
					t.Fatal(err)
				}
				a, _ := rep1.DeterministicJSON()
				rep16.Config.Workers = rep1.Config.Workers
				b, _ := rep16.DeterministicJSON()
				if !bytes.Equal(a, b) {
					t.Errorf("workers=1 vs workers=16 diverged:\n%s\n--- vs ---\n%s", a, b)
				}

				es := rep1.Spec.Estguard
				if !guard && es != nil {
					t.Error("estguard section present with the guard off")
				}
				if guard {
					if es == nil {
						t.Fatal("estguard section missing with the guard on")
					}
					if es.Refreshes == 0 {
						t.Error("guarded run recorded no refreshes")
					}
					if sc == "crawler" && es.QuarantinedClients == 0 {
						t.Error("crawler scenario quarantined no clients")
					}
				}
			})
		}
	}
}

// TestScenarioSuiteInvariants runs the full specbench scenario suite on
// the tiny workload and checks only the structural pieces that hold at
// any scale: the suite produces every arm, the schema is stamped, and a
// second run is byte-identical.
func TestScenarioSuiteInvariants(t *testing.T) {
	leakcheck.Check(t)
	base := scenarioCellConfig("", true)
	rep, err := RunScenarioSuite(base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ScenarioReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ScenarioReportSchema)
	}
	if len(rep.Arms) != len(scenarioSuite) {
		t.Fatalf("suite produced %d arms, want %d", len(rep.Arms), len(scenarioSuite))
	}
	for _, cell := range scenarioSuite {
		if rep.Arm(cell.name) == nil {
			t.Errorf("arm %s missing", cell.name)
		}
	}
	again, err := RunScenarioSuite(base)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := rep.JSON()
	bj, _ := again.JSON()
	if !bytes.Equal(aj, bj) {
		t.Errorf("suite reruns diverged:\n%s\n--- vs ---\n%s", aj, bj)
	}
}
