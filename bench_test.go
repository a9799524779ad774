// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (the experiment IDs of DESIGN.md §4). Each benchmark runs the
// corresponding experiment and reports the paper's headline metrics via
// b.ReportMetric, so `go test -bench=.` regenerates the whole evaluation.
//
// The full workload matches the paper's scale (≈90 days, ≈200k requests);
// `go test -short -bench=.` uses the small workload instead.
package specweb

import (
	"sync"
	"testing"

	"specweb/internal/experiments"
	"specweb/internal/httpspec"
	"specweb/internal/loadgen"
	"specweb/internal/popularity"
	"specweb/internal/speculation"
)

var (
	benchOnce sync.Once
	benchWL   *experiments.Workload
	benchErr  error
)

func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultWorkload()
		if testing.Short() {
			cfg = experiments.SmallWorkload()
		}
		benchWL, benchErr = experiments.Build(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWL
}

// BenchmarkFigure1 regenerates the block-popularity profile (F1).
func BenchmarkFigure1(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var res *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure1(w, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Top10PctCoverage, "top10pct_req_coverage_%")
	b.ReportMetric(100*res.Rows[0].CumReqFrac, "first_block_coverage_%")
	b.ReportMetric(res.Lambda*1e9, "lambda_e-9_per_byte")
}

// BenchmarkClassification regenerates the §2 document census (T1).
func BenchmarkClassification(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var res *experiments.ClassificationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Classification(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Counts[popularity.LocallyPopular]), "locally_popular_docs")
	b.ReportMetric(float64(res.Counts[popularity.RemotelyPopular]), "remotely_popular_docs")
	b.ReportMetric(float64(res.Counts[popularity.GloballyPopular]), "globally_popular_docs")
	b.ReportMetric(100*res.MeanUpdateRate[popularity.LocallyPopular], "local_update_%_per_day")
	b.ReportMetric(100*res.MeanUpdateRate[popularity.GloballyPopular], "global_update_%_per_day")
}

// BenchmarkFigure2 regenerates the allocation curves (F2).
func BenchmarkFigure2(b *testing.B) {
	var pts []experiments.Figure2Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure2(3, 6.247e-7, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	peak := 0
	for i, p := range pts {
		if p.Tight > pts[peak].Tight {
			peak = i
		}
	}
	b.ReportMetric(pts[peak].LambdaRatio, "tight_peak_lambda_ratio")
	b.ReportMetric(pts[0].Lax, "lax_alloc_at_small_lambda")
}

// BenchmarkSizing regenerates the eq. 10 sizing examples (T2).
func BenchmarkSizing(b *testing.B) {
	var rows []experiments.SizingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Sizing(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].B0/1e6, "ten_servers_90pct_MB") // paper: ≈36
	b.ReportMetric(rows[1].B0/1e6, "hundred_servers_96pct_MB")
}

// BenchmarkFigure3 regenerates the dissemination sweep (F3).
func BenchmarkFigure3(b *testing.B) {
	w := benchWorkload(b)
	counts := []int{1, 2, 4, 8, 16}
	b.ResetTimer()
	var curves []experiments.Figure3Curve
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = experiments.Figure3(w, []float64{0.10, 0.04}, counts)
		if err != nil {
			b.Fatal(err)
		}
	}
	last10 := curves[0].Points[len(curves[0].Points)-1]
	last4 := curves[1].Points[len(curves[1].Points)-1]
	b.ReportMetric(last10.ReductionPct, "reduction_%_top10pct_16proxies")
	b.ReportMetric(last4.ReductionPct, "reduction_%_top4pct_16proxies")
	b.ReportMetric(float64(last10.TotalStorage)/1e6, "storage_MB_top10pct_16proxies")
}

// BenchmarkFigure4 regenerates the dependency histogram (F4).
func BenchmarkFigure4(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var res *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure4(w, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Pairs), "dependent_pairs")
	b.ReportMetric(100*res.EmbeddingMass, "embedding_peak_mass_%")
}

// BenchmarkFigure5 regenerates the threshold sweep (F5, and by reordering
// F6).
func BenchmarkFigure5(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var pts []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure5(w, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Tp == 0.25 {
			b.ReportMetric(p.Ratios.TrafficIncreasePct(), "traffic_%_at_tp0.25")
			b.ReportMetric(p.Ratios.ServerLoadReductionPct(), "load_red_%_at_tp0.25")
			b.ReportMetric(p.Ratios.ServiceTimeReductionPct(), "time_red_%_at_tp0.25")
			b.ReportMetric(p.Ratios.MissRateReductionPct(), "miss_red_%_at_tp0.25")
		}
	}
}

// BenchmarkHeadline regenerates the §3.3 operating points (T3).
func BenchmarkHeadline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.HeadlineRow
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure5(w, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, err = experiments.Headline(pts, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: 5% → 30/23/18; 10% → 35/27/23.
	b.ReportMetric(rows[0].LoadReduction, "load_red_%_at_5pct_traffic")
	b.ReportMetric(rows[0].TimeReduction, "time_red_%_at_5pct_traffic")
	b.ReportMetric(rows[0].MissReduction, "miss_red_%_at_5pct_traffic")
	b.ReportMetric(rows[1].LoadReduction, "load_red_%_at_10pct_traffic")
	b.ReportMetric(rows[3].LoadReduction, "load_red_%_at_100pct_traffic")
}

// BenchmarkStability regenerates the update-cycle study (T4).
func BenchmarkStability(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.StabilityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Stability(w, 0.25)
		if err != nil {
			b.Fatal(err)
		}
	}
	byDP := map[[2]int]experiments.StabilityRow{}
	for _, r := range rows {
		byDP[[2]int{r.UpdateCycleDays, r.HistoryDays}] = r
	}
	fresh := byDP[[2]int{1, 60}].Ratios.ServerLoadReductionPct()
	b.ReportMetric(fresh, "load_red_%_D1")
	b.ReportMetric(fresh-byDP[[2]int{7, 60}].Ratios.ServerLoadReductionPct(), "degradation_%_D7")
	b.ReportMetric(fresh-byDP[[2]int{60, 60}].Ratios.ServerLoadReductionPct(), "degradation_%_D60")
}

// BenchmarkMaxSize regenerates the MaxSize study (T5).
func BenchmarkMaxSize(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.MaxSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MaxSizeSweep(w, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	if best, err := experiments.BestMaxSize(rows, 3); err == nil {
		b.ReportMetric(float64(best.MaxSize)/1024, "best_maxsize_KB_at_3pct")
	}
	if best, err := experiments.BestMaxSize(rows, 10); err == nil {
		b.ReportMetric(float64(best.MaxSize)/1024, "best_maxsize_KB_at_10pct")
	}
}

// BenchmarkCaching regenerates the client-cache study (T6).
func BenchmarkCaching(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.CachingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.CachingTable(w, 0.25)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "single-session ∞":
			b.ReportMetric(r.Ratios.ServerLoadReductionPct(), "load_red_%_single_session")
		case "multi-session ∞":
			b.ReportMetric(r.Ratios.ServerLoadReductionPct(), "load_red_%_infinite_cache")
		}
	}
}

// BenchmarkCooperative regenerates the cooperative-clients study (T7).
func BenchmarkCooperative(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.CooperativeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Cooperative(w, []float64{0.25})
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.Plain.TrafficIncreasePct(), "plain_traffic_%")
	b.ReportMetric(r.Cooperative.TrafficIncreasePct(), "cooperative_traffic_%")
	b.ReportMetric(r.Cooperative.ServerLoadReductionPct(), "cooperative_load_red_%")
}

// BenchmarkPrefetch regenerates the delivery-mode study (T8).
func BenchmarkPrefetch(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.PrefetchRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PrefetchTable(w, 0.25)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Mode {
		case speculation.ModePush:
			b.ReportMetric(r.Ratios.ServerLoadReductionPct(), "push_load_red_%")
		case speculation.ModeHints:
			b.ReportMetric(r.Ratios.TrafficIncreasePct(), "hints_traffic_%")
		case speculation.ModeHybrid:
			b.ReportMetric(r.Ratios.ServerLoadReductionPct(), "hybrid_load_red_%")
		}
	}
}

// BenchmarkAblationClosure compares the three dependency-matrix
// constructions (DESIGN.md ablation).
func BenchmarkAblationClosure(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.ClosureAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ClosureAblation(w, 0.25)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "P* (direct estimate)":
			b.ReportMetric(r.Ratios.ServerLoadReductionPct(), "direct_pstar_load_red_%")
			b.ReportMetric(r.Ratios.TrafficIncreasePct(), "direct_pstar_traffic_%")
		case "P* (analytic closure)":
			b.ReportMetric(r.Ratios.ServerLoadReductionPct(), "analytic_pstar_load_red_%")
			b.ReportMetric(r.Ratios.TrafficIncreasePct(), "analytic_pstar_traffic_%")
		case "raw P":
			b.ReportMetric(r.Ratios.ServerLoadReductionPct(), "raw_p_load_red_%")
			b.ReportMetric(r.Ratios.TrafficIncreasePct(), "raw_p_traffic_%")
		}
	}
}

// BenchmarkAblationAllocation compares the exponential closed form against
// the empirical greedy optimum (DESIGN.md ablation).
func BenchmarkAblationAllocation(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var cmp *experiments.AllocationComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.CompareAllocation(w, 8, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*cmp.AlphaGreedy, "greedy_alpha_%")
	b.ReportMetric(100*cmp.AlphaModel, "exp_model_alpha_%")
	b.ReportMetric(100*cmp.ModelShortfall, "model_shortfall_pp")
}

// BenchmarkAblationSpecialized compares uniform replication with per-proxy
// geographic specialization (§2.4's remark; DESIGN.md ablation).
func BenchmarkAblationSpecialized(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var uni, spec float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure3(w, []float64{0.10}, []int{8})
		if err != nil {
			b.Fatal(err)
		}
		uni = curves[0].Points[0].ReductionPct
		scurves, err := experiments.Figure3Specialized(w, 0.10, []int{8})
		if err != nil {
			b.Fatal(err)
		}
		spec = scurves[0].ReductionPct
	}
	b.ReportMetric(uni, "uniform_reduction_%")
	b.ReportMetric(spec, "specialized_reduction_%")
}

// BenchmarkClusterValidation closes the loop on §2.1's cluster model: the
// eq. 4–5 allocation versus naive and empirical baselines, predicted versus
// measured α on a held-out window.
func BenchmarkClusterValidation(b *testing.B) {
	days := 40
	if testing.Short() {
		days = 16
	}
	var rows []experiments.ClusterRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ClusterValidation(7, 4, 800<<10, days)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Strategy.String() {
		case "exponential":
			b.ReportMetric(100*r.PredictedAlpha, "exp_predicted_alpha_%")
			b.ReportMetric(100*r.MeasuredAlpha, "exp_measured_alpha_%")
		case "greedy":
			b.ReportMetric(100*r.MeasuredAlpha, "greedy_measured_alpha_%")
		case "equal":
			b.ReportMetric(100*r.MeasuredAlpha, "equal_measured_alpha_%")
		}
	}
}

// BenchmarkUserProfile regenerates the §3.4 closing comparison: per-user
// client prefetching versus server-initiated speculative service, split by
// repeat and novel accesses.
func BenchmarkUserProfile(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.UserProfileRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.UserProfileStudy(w, 0.3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "client user-profile prefetch":
			b.ReportMetric(float64(r.RepeatConversions), "client_repeat_conversions")
			b.ReportMetric(float64(r.NovelConversions), "client_novel_conversions")
		case "server speculative service":
			b.ReportMetric(float64(r.RepeatConversions), "server_repeat_conversions")
			b.ReportMetric(float64(r.NovelConversions), "server_novel_conversions")
		}
	}
}

// BenchmarkLoadBalance regenerates the §2.3 bottleneck/load-balance study
// (T11): home-server relief and busiest-proxy concentration, with dynamic
// shielding at half the busiest observed proxy load.
func BenchmarkLoadBalance(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var rows []experiments.LoadBalanceRow
	for i := 0; i < b.N; i++ {
		open, err := experiments.LoadBalance(w, 0.10, []int{1, 4, 16}, 0)
		if err != nil {
			b.Fatal(err)
		}
		capacity := int64(open[0].MaxProxySharePct / 200 * float64(w.Trace.TotalBytes()))
		rows, err = experiments.LoadBalance(w, 0.10, []int{1, 4, 16}, capacity)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.RootShedPct, "root_relief_%_16proxies")
	b.ReportMetric(last.MaxProxySharePct, "busiest_proxy_%_16proxies")
	b.ReportMetric(last.ShieldedMaxSharePct, "busiest_shielded_%_16proxies")
}

// BenchmarkMaxSizeMedia reruns the T5 MaxSize study on the multimedia
// workload, where the Pareto object tail makes the cap bind (on the
// department workload it does not — see EXPERIMENTS.md).
func BenchmarkMaxSizeMedia(b *testing.B) {
	cfg := experiments.MediaWorkload()
	cfg.Days = 30
	cfg.SessionsPerDay = 100
	if testing.Short() {
		cfg.Days = 10
		cfg.SessionsPerDay = 50
	}
	w, err := experiments.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows []experiments.MaxSizeRow
	for i := 0; i < b.N; i++ {
		rows, err = experiments.MaxSizeSweep(w, []float64{0.5, 0.25, 0.1},
			[]int64{0, 256 << 10, 29 << 10, 15 << 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	if best, err := experiments.BestMaxSize(rows, 10); err == nil {
		b.ReportMetric(float64(best.MaxSize)/1024, "best_maxsize_KB_at_10pct")
		b.ReportMetric(best.Ratios.ServerLoadReductionPct(), "best_load_red_%_at_10pct")
	}
	if best, err := experiments.BestMaxSize(rows, 30); err == nil {
		b.ReportMetric(float64(best.MaxSize)/1024, "best_maxsize_KB_at_30pct")
	}
}

// BenchmarkSpecbench drives the live httpspec stack through the
// deterministic load generator (cmd/specbench's engine) and reports the
// measured wall-clock and paper metrics for the speculative arm. Each
// iteration is one full warmup+measurement run.
func BenchmarkSpecbench(b *testing.B) {
	cfg := loadgen.Config{
		Workload:  experiments.SmallWorkload(),
		Speculate: true,
		Mode:      httpspec.ModePush,
		MaxPush:   16,
	}
	if !testing.Short() {
		cfg.Workload = experiments.DefaultWorkload()
	}
	b.ResetTimer()
	var res *loadgen.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, _, err = loadgen.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Timing.Throughput, "req/s")
	b.ReportMetric(res.Timing.Latency.P99, "p99_ms")
	b.ReportMetric(res.Ratios.Bandwidth, "bandwidth_ratio")
	b.ReportMetric(res.Ratios.ServerLoad, "server_load_ratio")
	b.ReportMetric(res.Timing.ServiceTime, "service_time_ratio")
}
