package loadgen

import (
	"encoding/json"
	"fmt"
)

// ScenarioReportSchema versions the BENCH-scenarios.json layout.
const ScenarioReportSchema = "specbench-scenarios/1"

// ScenarioInterceptionBound maps a scenario name to the committed maximum
// allowed interception degradation versus the clean arm, as an absolute
// drop in the interception fraction (consumed/delivered speculative
// bytes). A guarded adversarial run may intercept less than the clean run
// — the adversary does cost something — but never by more than this.
// These bounds gate the CI scenario suite; loosen them only with the
// baseline refresh that justifies it.
var ScenarioInterceptionBound = map[string]float64{
	"flash-crowd":    0.15,
	"diurnal":        0.15,
	"crawler":        0.15,
	"long-tail-scan": 0.15,
	"multi-tenant":   0.20,
}

// ScenarioArm is one suite cell: a scenario × estguard combination run
// over the same base configuration. Everything but P99MS is deterministic
// for a given seed.
type ScenarioArm struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario,omitempty"`
	Estguard bool   `json:"estguard,omitempty"`

	// Interception is consumed/delivered speculative bytes — the paper's
	// "fraction of disseminated data that intercepted a real request".
	Interception float64 `json:"interception"`
	// WastedFraction is wasted/delivered speculative bytes.
	WastedFraction float64       `json:"wasted_fraction"`
	Counts         Counts        `json:"counts"`
	Ratios         Ratios        `json:"ratios"`
	Guard          *EstguardInfo `json:"guard,omitempty"`
	// P99MS is wall-clock demand latency; within one suite run all arms
	// share a process, so arm-relative comparisons are meaningful.
	P99MS float64 `json:"p99_ms"`
}

// ScenarioReport is the BENCH-scenarios.json document.
type ScenarioReport struct {
	Schema string        `json:"schema"`
	Config ConfigInfo    `json:"config"` // the clean arm's configuration
	Arms   []ScenarioArm `json:"arms"`
}

// scenarioSuite is the fixed arm list: the clean control, every
// adversarial profile under guard, and the crawler profile unguarded —
// the pair the poisoning gate compares.
var scenarioSuite = []struct {
	name, scenario string
	estguard       bool
}{
	{"clean", "", true},
	{"flash-crowd", "flash-crowd", true},
	{"diurnal", "diurnal", true},
	{"crawler", "crawler", true},
	{"long-tail-scan", "long-tail-scan", true},
	{"multi-tenant", "multi-tenant", true},
	{"crawler-unguarded", "crawler", false},
}

// RunScenarioSuite executes the adversarial suite over base: one arm per
// suite cell, identical base configuration otherwise. base should have
// Speculate true (it is forced on) — interception is the suite's core
// metric and needs the attribution ledger.
func RunScenarioSuite(base Config) (*ScenarioReport, error) {
	base.Speculate = true
	rep := &ScenarioReport{Schema: ScenarioReportSchema}
	for _, cell := range scenarioSuite {
		cfg := base
		cfg.Workload.Scenario = cell.scenario
		cfg.Estguard = cell.estguard
		res, _, cinfo, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scenario arm %s: %w", cell.name, err)
		}
		arm := ScenarioArm{
			Name:     cell.name,
			Scenario: cell.scenario,
			Estguard: cell.estguard,
			Counts:   res.Counts,
			Ratios:   res.Ratios,
			Guard:    res.Estguard,
		}
		if at := res.Attrib; at != nil && at.Totals.DeliveredBytes > 0 {
			arm.Interception = float64(at.Totals.ConsumedBytes) / float64(at.Totals.DeliveredBytes)
			arm.WastedFraction = float64(at.Totals.WastedBytes) / float64(at.Totals.DeliveredBytes)
		}
		if res.Timing != nil {
			arm.P99MS = res.Timing.Latency.P99
		}
		if cell.name == "clean" {
			rep.Config = cinfo
		}
		rep.Arms = append(rep.Arms, arm)
	}
	return rep, nil
}

// Arm returns the named arm, or nil.
func (r *ScenarioReport) Arm(name string) *ScenarioArm {
	for i := range r.Arms {
		if r.Arms[i].Name == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// JSON marshals the suite report, indented.
func (r *ScenarioReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CheckScenarioInvariants verifies the suite's structural guarantees,
// which hold regardless of any committed baseline:
//
//   - the guard must pay for itself under poisoning: the guarded crawler
//     arm's interception is strictly better than the unguarded one's;
//   - no guarded adversarial arm degrades interception below the clean
//     arm by more than its committed ScenarioInterceptionBound;
//   - the guarded crawler arm quarantines at least one client (the
//     mechanism actually fired — a vacuous win is a bug);
//   - demand p99 under any scenario stays within p99Factor of the clean
//     arm (a generous same-process smoke bound, not a precision gate).
//
// It returns one message per violated invariant.
func CheckScenarioInvariants(rep *ScenarioReport) []string {
	const p99Factor = 5.0
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	clean := rep.Arm("clean")
	if clean == nil {
		return []string{"suite has no clean arm"}
	}
	guarded, unguarded := rep.Arm("crawler"), rep.Arm("crawler-unguarded")
	if guarded == nil || unguarded == nil {
		fail("suite is missing a crawler arm")
	} else {
		if guarded.Interception <= unguarded.Interception {
			fail("crawler poisoning: guarded interception %.4f not strictly better than unguarded %.4f",
				guarded.Interception, unguarded.Interception)
		}
		if guarded.Guard == nil || guarded.Guard.QuarantinedClients == 0 {
			fail("crawler poisoning: guard quarantined no clients")
		}
	}
	for i := range rep.Arms {
		arm := &rep.Arms[i]
		if arm.Name == "clean" || !arm.Estguard {
			continue
		}
		bound, ok := ScenarioInterceptionBound[arm.Scenario]
		if !ok {
			fail("%s: no committed interception bound for scenario %q", arm.Name, arm.Scenario)
			continue
		}
		if drop := clean.Interception - arm.Interception; drop > bound {
			fail("%s: interception %.4f dropped %.4f below clean %.4f (bound %.2f)",
				arm.Name, arm.Interception, drop, clean.Interception, bound)
		}
		if clean.P99MS > 0 && arm.P99MS > clean.P99MS*p99Factor {
			fail("%s: demand p99 %.3fms exceeds %gx the clean arm's %.3fms",
				arm.Name, arm.P99MS, p99Factor, clean.P99MS)
		}
	}
	return v
}

// CompareScenarios gates current against a committed baseline suite: the
// deterministic per-arm metrics (interception, wasted fraction, counts,
// quarantine ledger) must stay within tolerance. Wall-clock p99 is not
// baseline-gated — CheckScenarioInvariants bounds it arm-relatively.
func CompareScenarios(baseline, current *ScenarioReport, tolerancePct float64) []string {
	g := newGate(tolerancePct, baseline.Schema, current.Schema)
	fail, drift := g.fail, g.drift
	for i := range baseline.Arms {
		b := &baseline.Arms[i]
		c := current.Arm(b.Name)
		if c == nil {
			fail("arm %s missing from current suite", b.Name)
			continue
		}
		drift(b.Name+".interception", b.Interception, c.Interception)
		drift(b.Name+".wasted_fraction", b.WastedFraction, c.WastedFraction)
		drift(b.Name+".counts.requests", float64(b.Counts.Requests), float64(c.Counts.Requests))
		drift(b.Name+".counts.spec_hits", float64(b.Counts.SpecHits), float64(c.Counts.SpecHits))
		drift(b.Name+".ratios.bandwidth", b.Ratios.Bandwidth, c.Ratios.Bandwidth)
		if b.Guard != nil && c.Guard != nil {
			drift(b.Name+".guard.quarantined_clients",
				float64(b.Guard.QuarantinedClients), float64(c.Guard.QuarantinedClients))
			drift(b.Name+".guard.quarantined_requests",
				float64(b.Guard.QuarantinedRequests), float64(c.Guard.QuarantinedRequests))
		}
	}
	for i := range current.Arms {
		if baseline.Arm(current.Arms[i].Name) == nil {
			fail("arm %s missing from baseline suite", current.Arms[i].Name)
		}
	}
	return g.v
}
