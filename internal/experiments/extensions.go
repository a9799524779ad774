package experiments

import (
	"fmt"

	"specweb/internal/cluster"
	"specweb/internal/costmodel"
	"specweb/internal/simulate"
	"specweb/internal/speculation"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/userprofile"
	"specweb/internal/webgraph"
)

// ClusterRow is one allocation strategy's outcome on a cluster of home
// servers sharing one proxy — the §2.1 model validated end to end.
type ClusterRow struct {
	Strategy       cluster.Strategy
	PredictedAlpha float64
	MeasuredAlpha  float64
}

// ClusterValidation builds n synthetic home servers (sites and traces of
// varying demand), splits a proxy budget among them with each strategy, and
// measures the intercepted fraction α on a held-out evaluation window. The
// exponential closed form (eqs. 4–5) should track both its own prediction
// and the greedy empirical optimum, and beat the naive equal split.
func ClusterValidation(seed int64, n int, budget int64, days int) ([]ClusterRow, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: cluster needs n >= 2, got %d", n)
	}
	if days <= 1 {
		days = 20
	}
	var members []cluster.Member
	for i := 0; i < n; i++ {
		root := stats.NewRNG(seed + int64(i)*1000003)
		p := webgraph.TinySite()
		p.Name = fmt.Sprintf("member%d", i)
		site, err := webgraph.Generate(p, root.Split("site"))
		if err != nil {
			return nil, err
		}
		scfg := synth.DefaultConfig(site, nil)
		scfg.Days = days
		scfg.SessionsPerDay = float64(30 * (1 + i%4)) // varying popularity
		scfg.RemoteClients = 150
		scfg.LocalClients = 10
		res, err := synth.Generate(scfg, root.Split("trace"))
		if err != nil {
			return nil, err
		}
		members = append(members, cluster.Member{Name: p.Name, Site: site, Trace: res.Trace})
	}
	var rows []ClusterRow
	for _, s := range []cluster.Strategy{
		cluster.Exponential, cluster.GreedyEmpirical, cluster.ProportionalSplit, cluster.EqualSplit,
	} {
		res, err := cluster.Simulate(members, cluster.Config{Budget: budget, Strategy: s})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ClusterRow{
			Strategy:       s,
			PredictedAlpha: res.PredictedAlpha,
			MeasuredAlpha:  res.MeasuredAlpha,
		})
	}
	return rows, nil
}

// UserProfileRow compares one prefetching scheme's outcome, including the
// repeat/novel conversion split §3.4's discussion rests on.
type UserProfileRow struct {
	Name              string
	Ratios            costmodel.Ratios
	RepeatConversions int64
	NovelConversions  int64
}

// UserProfileStudy reproduces §3.4's closing comparison: per-user
// client-initiated prefetching (from user logs) converts only
// previously-traversed documents, while server-initiated speculative
// service (from server logs) also converts first-time accesses — the
// argument for combining the two into a single protocol.
func UserProfileStudy(w *Workload, tp float64) ([]UserProfileRow, error) {
	var rows []UserProfileRow

	ucfg := userprofile.Default(w.Site)
	ucfg.PrefetchTp = tp
	ures, err := userprofile.Run(w.Trace, ucfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, UserProfileRow{
		Name:              "client user-profile prefetch",
		Ratios:            ures.Ratios,
		RepeatConversions: ures.RepeatConversions,
		NovelConversions:  ures.NovelConversions,
	})

	scfg := simulate.Baseline(w.Site, tp)
	scfg.SessionTimeout = ucfg.SessionTimeout // same cache model for a fair comparison
	sres, err := simulate.Run(w.Trace, scfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, UserProfileRow{
		Name:              "server speculative service",
		Ratios:            sres.Ratios,
		RepeatConversions: sres.RepeatConversions,
		NovelConversions:  sres.NovelConversions,
	})

	hcfg := simulate.Baseline(w.Site, tp)
	hcfg.SessionTimeout = ucfg.SessionTimeout
	hcfg.Mode = speculation.ModeHybrid
	hcfg.PrefetchTp = tp
	hres, err := simulate.Run(w.Trace, hcfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, UserProfileRow{
		Name:              "hybrid (push certain + hints)",
		Ratios:            hres.Ratios,
		RepeatConversions: hres.RepeatConversions,
		NovelConversions:  hres.NovelConversions,
	})
	return rows, nil
}
