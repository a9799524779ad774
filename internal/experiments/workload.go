// Package experiments regenerates every table and figure of the paper's
// evaluation on the synthetic workload, one function per artifact (see
// DESIGN.md's experiment index). The cmd/ tools, the examples, and the
// repository's benchmark suite are all thin wrappers over this package.
package experiments

import (
	"fmt"

	"specweb/internal/netsim"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// WorkloadConfig describes the world an experiment runs against.
type WorkloadConfig struct {
	Profile        webgraph.Profile
	Net            netsim.Config
	Days           int
	SessionsPerDay float64
	Seed           int64
	// Noise is the junk-request fraction passed to the trace generator
	// (see synth.Config.Noise). Experiments run on clean traces; the
	// tracegen tool exposes this to produce realistic raw logs.
	Noise float64
	// Scenario names an adversarial workload overlay ("" or "none" for the
	// baseline; see synth.ScenarioNames). The scenario runs with its
	// committed default knobs so benchmark baselines stay comparable.
	Scenario string
}

// DefaultWorkload reproduces the paper's trace scale: a department-site
// profile observed for ~90 days (the paper's January–March 1995 logs held
// 205,925 accesses from 8,474 clients).
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Profile:        webgraph.DepartmentSite(),
		Net:            netsim.DefaultConfig(),
		Days:           90,
		SessionsPerDay: 220,
		Seed:           1995,
	}
}

// SmallWorkload is a fast variant for tests and -short benchmarks: a
// 200-page site observed for two weeks. Large enough that every §2/§3
// phenomenon (three popularity classes, mutable documents, embedding and
// traversal dependencies) is present, small enough to simulate in well
// under a second.
func SmallWorkload() WorkloadConfig {
	profile := webgraph.DepartmentSite()
	profile.Name = "small-department"
	profile.Pages = 200
	profile.EntryFraction = 0.1
	return WorkloadConfig{
		Profile:        profile,
		Net:            netsim.TinyConfig(),
		Days:           14,
		SessionsPerDay: 80,
		Seed:           1995,
	}
}

// MediaWorkload swaps in the multimedia-heavy profile (the Rolling Stones
// corroboration of §2's footnote).
func MediaWorkload() WorkloadConfig {
	w := DefaultWorkload()
	w.Profile = webgraph.MediaSite()
	return w
}

// Workload is the generated world shared by the experiments.
type Workload struct {
	Config  WorkloadConfig
	Site    *webgraph.Site
	Topo    *netsim.Topology
	Trace   *trace.Trace
	Updates []synth.Update
}

// StreamWorkload is the streaming counterpart of Workload: the same site
// and topology, but the trace exists only as per-client seeded cursors
// (synth.Stream) — it is never materialized here.
type StreamWorkload struct {
	Config WorkloadConfig
	Site   *webgraph.Site
	Topo   *netsim.Topology
	Gen    *synth.Stream
}

// world generates what both workload forms share — the site, the
// topology and the trace model's configuration, scenario included — from
// one set of seed-derivation labels, so Build and BuildStream describe
// the identical world.
func world(cfg WorkloadConfig) (*stats.RNG, synth.Config, error) {
	root := stats.NewRNG(cfg.Seed)
	site, err := webgraph.Generate(cfg.Profile, root.Split("site"))
	if err != nil {
		return nil, synth.Config{}, fmt.Errorf("experiments: generating site: %w", err)
	}
	topo, err := netsim.Generate(cfg.Net, root.Split("net"))
	if err != nil {
		return nil, synth.Config{}, fmt.Errorf("experiments: generating topology: %w", err)
	}
	kind, err := synth.ScenarioByName(cfg.Scenario)
	if err != nil {
		return nil, synth.Config{}, fmt.Errorf("experiments: %w", err)
	}
	scfg := synth.DefaultConfig(site, topo)
	scfg.Days = cfg.Days
	scfg.SessionsPerDay = cfg.SessionsPerDay
	scfg.Noise = cfg.Noise
	scfg.Scenario = synth.DefaultScenario(kind)
	return root, scfg, nil
}

// BuildStream wraps the trace model in a per-client stream generator
// instead of materializing it. Identical configurations produce
// identical streams; the generator refuses scenarios.
func BuildStream(cfg WorkloadConfig) (*StreamWorkload, error) {
	_, scfg, err := world(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := synth.NewStream(scfg, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: building stream: %w", err)
	}
	return &StreamWorkload{Config: cfg, Site: scfg.Site, Topo: scfg.Topology, Gen: gen}, nil
}

// Build generates the site, topology, and trace for the configuration.
// Identical configurations produce identical workloads.
func Build(cfg WorkloadConfig) (*Workload, error) {
	root, scfg, err := world(cfg)
	if err != nil {
		return nil, err
	}
	res, err := synth.Generate(scfg, root.Split("trace"))
	if err != nil {
		return nil, fmt.Errorf("experiments: generating trace: %w", err)
	}
	return &Workload{
		Config:  cfg,
		Site:    scfg.Site,
		Topo:    scfg.Topology,
		Trace:   res.Trace,
		Updates: res.Updates,
	}, nil
}
