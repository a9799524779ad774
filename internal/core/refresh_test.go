package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"specweb/internal/estguard"
	"specweb/internal/markov"
	"specweb/internal/obs"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// splitOpenStridesByClient cuts a time-sorted buffer into the requests a
// refresh at `at` finalizes and the per-client trailing strides still open
// — those whose last request is within strideTimeout of at, reaching back
// while gaps stay under it — with per-client cuts over ByClient, then a
// sort of each half. Its per-client sequences are the reference the
// engine's logs are held to; its order between clients at equal
// timestamps follows map iteration and is not.
func splitOpenStridesByClient(buf *trace.Trace, at time.Time, strideTimeout time.Duration) (flush, carry *trace.Trace) {
	flush = &trace.Trace{}
	carry = &trace.Trace{}
	if strideTimeout <= 0 {
		flush.Requests = buf.Requests
		return flush, carry
	}
	for _, reqs := range buf.ByClient() {
		last := reqs[len(reqs)-1].Time
		if at.Sub(last) >= strideTimeout {
			flush.Requests = append(flush.Requests, reqs...)
			continue
		}
		cut := len(reqs) - 1
		for cut > 0 && reqs[cut].Time.Sub(reqs[cut-1].Time) < strideTimeout {
			cut--
		}
		flush.Requests = append(flush.Requests, reqs[:cut]...)
		carry.Requests = append(carry.Requests, reqs[cut:]...)
	}
	flush.SortByTime()
	carry.SortByTime()
	return flush, carry
}

// ingestOp is one step of an ingestion script: a Record, an Offer, a
// Settle (used or not) or a Refresh.
type ingestOp struct {
	kind   byte // 'r' record, 'o' offer, 'u' settle used, 'n' settle unused, 'f' refresh
	client trace.ClientID
	doc    webgraph.DocID
	at     time.Time // unused by settles, which take the offer's time
}

// materializedLog is the reference the engine's per-client logs are held
// against: every access kept as a trace.Request in arrival order, put in
// time order by trace.SortRequests behind the strides carried from the
// last refresh, cut by splitOpenStridesByClient, and folded by the same
// estimators — those of an engine that never sees a Record.
type materializedLog struct {
	ref            *Engine
	pending, carry []trace.Request
	offers         map[offerKey]time.Time
	recorded       int64
	quarantined    int64
	refreshes      int64
	offersOut      int64
}

func (m *materializedLog) apply(op ingestOp) (settled bool) {
	key := offerKey{op.client, op.doc}
	switch op.kind {
	case 'r':
		m.pending = append(m.pending, trace.Request{Time: op.at, Client: op.client, Doc: op.doc})
		m.recorded++
	case 'o':
		if _, ok := m.offers[key]; !ok {
			m.offersOut++
		}
		m.offers[key] = op.at
	case 'u', 'n':
		at, ok := m.offers[key]
		if !ok {
			return false
		}
		delete(m.offers, key)
		m.offersOut--
		if op.kind == 'u' {
			m.pending = append(m.pending, trace.Request{Time: at, Client: op.client, Doc: op.doc})
			m.recorded++
		}
		return true
	case 'f':
		m.refresh(op.at)
	}
	return false
}

func (m *materializedLog) refresh(at time.Time) {
	cfg := m.ref.cfg
	buf := append(append([]trace.Request(nil), m.carry...), m.pending...)
	trace.SortRequests(buf)
	flush, carry := splitOpenStridesByClient(&trace.Trace{Requests: buf}, at, cfg.StrideTimeout)
	m.carry, m.pending = carry.Requests, nil
	for key, o := range m.offers {
		if at.Sub(o) > cfg.RefreshEvery {
			delete(m.offers, key)
			m.offersOut--
		}
	}
	if g := cfg.Guard; g != nil {
		clean, quar := g.Partition(flush.Runs())
		for _, run := range quar {
			m.quarantined += int64(len(run.Visits))
		}
		if err := m.ref.quarantine.AddRuns(quar); err != nil {
			panic(err)
		}
		if err := m.ref.est.AddRuns(clean); err != nil {
			panic(err)
		}
		return
	}
	if err := m.ref.est.(interface{ AddDay(*trace.Trace) error }).AddDay(flush); err != nil {
		panic(err)
	}
}

// frozenBits flattens f into row IDs, successor IDs and probability bits,
// so two matrices compare bit for bit.
func frozenBits(f *markov.Frozen) []uint64 {
	var out []uint64
	f.RangeRows(func(doc webgraph.DocID, row []markov.Successor) bool {
		out = append(out, uint64(doc), uint64(len(row)))
		for _, s := range row {
			out = append(out, uint64(s.Doc), math.Float64bits(s.P))
		}
		return true
	})
	return out
}

// ingestionEngines are the three estimators the differential test drives:
// exact, bounded with caps small enough to evict, and guarded.
var ingestionEngines = []struct {
	name string
	cfg  func() EngineConfig
}{
	{"exact", func() EngineConfig { return ingestionConfig() }},
	{"bounded", func() EngineConfig {
		cfg := ingestionConfig()
		cfg.MaxRows, cfg.RowTopK = 3, 2
		return cfg
	}},
	{"guarded", func() EngineConfig {
		cfg := ingestionConfig()
		cfg.Guard = estguard.New(estguard.Config{Seed: 7, MinRequests: 6, Metrics: cfg.Metrics})
		return cfg
	}},
}

func ingestionConfig() EngineConfig {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 1
	cfg.DecayPerDay = 0.5
	cfg.Metrics = obs.NewRegistry()
	// Only the script refreshes: no deadline, no early refresh.
	cfg.RefreshEvery = 10000 * time.Hour
	return cfg
}

// runIngestion drives script through a fresh engine and its materialized
// reference and fails on the first refresh after which they differ. It
// reports what the run exercised: pairs evicted and requests quarantined.
func runIngestion(t *testing.T, mk func() EngineConfig, script []ingestOp) (evicted, quarantined int64) {
	t.Helper()
	e, err := NewEngine(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &materializedLog{ref: ref, offers: make(map[offerKey]time.Time)}
	for n, op := range script {
		switch op.kind {
		case 'r':
			e.Record(op.client, op.doc, op.at)
		case 'o':
			e.Offer(op.client, op.doc, op.at, 500)
		case 'u', 'n':
			_, ok := e.Settle(op.client, op.doc, op.kind == 'u')
			if want := m.apply(op); ok != want {
				t.Fatalf("op %d: Settle ok = %v, reference %v", n, ok, want)
			}
			continue
		case 'f':
			e.Refresh(op.at)
		}
		m.apply(op)
		if op.kind != 'f' {
			continue
		}
		st := e.Stats()
		var got, want *markov.Frozen
		if e.cfg.Guard == nil {
			got = e.snap.Load().frozen
			want = ref.est.Freeze(nil)
			if st.Pairs != want.NumPairs() || st.Docs != want.NumRows() {
				t.Fatalf("op %d: stats %+v, reference %d pairs %d docs",
					n, st, want.NumPairs(), want.NumRows())
			}
			if st.Estimator != nil {
				if ws := ref.est.EstimatorStats(); *st.Estimator != ws {
					t.Fatalf("op %d: estimator stats %+v, reference %+v", n, *st.Estimator, ws)
				}
				evicted = st.Estimator.EvictedPairs
			}
		} else {
			got = e.est.Freeze(nil)
			want = ref.est.Freeze(nil)
			if !slices.Equal(frozenBits(e.quarantine.Freeze(nil)), frozenBits(ref.quarantine.Freeze(nil))) {
				t.Fatalf("op %d: quarantine ledger differs from the reference", n)
			}
			if st.QuarantinedRequests != m.quarantined {
				t.Fatalf("op %d: %d requests quarantined, reference %d", n, st.QuarantinedRequests, m.quarantined)
			}
			quarantined = m.quarantined
		}
		if !slices.Equal(frozenBits(got), frozenBits(want)) {
			t.Fatalf("op %d: frozen matrix differs from the reference:\n got %v\nwant %v", n, frozenBits(got), frozenBits(want))
		}
		m.refreshes++
		if st.Recorded != m.recorded || st.Refreshes != m.refreshes || st.OffersOutstanding != m.offersOut {
			t.Fatalf("op %d: stats %+v, reference recorded %d offers %d", n, st, m.recorded, m.offersOut)
		}
	}
	return evicted, quarantined
}

// randomScript interleaves records, offers, settlements and refreshes over
// four clients and a metronomic bot: equal timestamps within and across
// clients, records that arrive out of clock order, settlements stamped
// before a carried stride or before the previous refresh, and refreshes
// landing mid-stride.
func randomScript(rng *rand.Rand, n int) []ingestOp {
	var script []ingestOp
	now, bot := t0, t0
	var offered []offerKey
	for len(script) < n {
		c := trace.ClientID(fmt.Sprintf("c%d", rng.Intn(4)))
		doc := webgraph.DocID(rng.Intn(9))
		switch p := rng.Intn(100); {
		case p < 45:
			now = now.Add(time.Duration(rng.Intn(4)) * time.Second) // 0 s steps give equal timestamps
			at := now
			if rng.Intn(8) == 0 {
				at = at.Add(-time.Duration(rng.Intn(7000)) * time.Millisecond)
			}
			script = append(script, ingestOp{kind: 'r', client: c, doc: doc, at: at})
		case p < 55:
			bot = bot.Add(time.Second)
			script = append(script, ingestOp{kind: 'r', client: "bot", doc: webgraph.DocID(10 + len(script)%40), at: bot})
		case p < 67:
			script = append(script, ingestOp{kind: 'o', client: c, doc: doc, at: now.Add(-time.Duration(rng.Intn(3)) * time.Second)})
			offered = append(offered, offerKey{c, doc})
		case p < 82 && len(offered) > 0:
			k := offered[rng.Intn(len(offered))]
			kind := byte('u')
			if rng.Intn(3) == 0 {
				kind = 'n'
			}
			script = append(script, ingestOp{kind: kind, client: k.client, doc: k.doc})
		case p < 92:
			step := []time.Duration{0, time.Second, 3 * time.Second, 6 * time.Second, time.Minute}[rng.Intn(5)]
			script = append(script, ingestOp{kind: 'f', at: now.Add(step)})
		default:
			now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
		}
	}
	return append(script, ingestOp{kind: 'f', at: now.Add(time.Hour)})
}

// The per-client logs feed every estimator exactly what a materialized log,
// time-sorted and cut per client, feeds it: the same frozen matrices bit
// for bit, the same stats, the same quarantined requests.
func TestIngestionMatchesMaterializedLog(t *testing.T) {
	s := func(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }
	// Eight clients per instant: clients meeting at one timestamp must not
	// reach the estimators in map or shard order.
	var sameInstant []ingestOp
	for k := 0; k < 40; k++ {
		sameInstant = append(sameInstant, ingestOp{kind: 'r', client: trace.ClientID(fmt.Sprintf("c%d", k%8)),
			doc: webgraph.DocID(k % 9), at: s(float64(k/8) * 2)})
	}
	sameInstant = append(sameInstant, ingestOp{kind: 'f', at: s(9)}, ingestOp{kind: 'f', at: s(60)})
	rows := []struct {
		name   string
		repeat int
		script []ingestOp
	}{
		{"equal timestamps across clients", 10, sameInstant},
		{"by hand", 1, []ingestOp{
			{kind: 'r', client: "a", doc: 1, at: s(0)},
			{kind: 'r', client: "a", doc: 2, at: s(1)},
			{kind: 'r', client: "a", doc: 3, at: s(1)}, // equal times within a client
			{kind: 'r', client: "b", doc: 3, at: s(1)}, // and across clients
			{kind: 'r', client: "a", doc: 4, at: s(3)},
			{kind: 'r', client: "a", doc: 5, at: s(2)}, // out of clock order
			{kind: 'o', client: "c", doc: 8, at: s(0)},
			{kind: 'r', client: "c", doc: 5, at: s(10)},
			{kind: 'r', client: "c", doc: 6, at: s(12)},
			{kind: 'f', at: s(4)},            // mid-stride for a and b
			{kind: 'f', at: s(13)},           // carries c's stride; a and b close
			{kind: 'u', client: "c", doc: 8}, // stamped before the carried stride
			{kind: 'o', client: "d", doc: 6, at: s(20)},
			{kind: 'r', client: "d", doc: 7, at: s(21)},
			{kind: 'f', at: s(23)},
			{kind: 'u', client: "d", doc: 6}, // stamped before the previous refresh, inside the carried stride
			{kind: 'n', client: "c", doc: 8}, // settled already
			{kind: 'f', at: s(100)},
		}},
	}
	rng := rand.New(rand.NewSource(38))
	for seed := 0; seed < 40; seed++ {
		rows = append(rows, struct {
			name   string
			repeat int
			script []ingestOp
		}{fmt.Sprintf("random %d", seed), 1, randomScript(rng, 20+rng.Intn(200))})
	}
	var evicted, quarantined int64
	for _, eng := range ingestionEngines {
		for _, row := range rows {
			t.Run(eng.name+"/"+row.name, func(t *testing.T) {
				for r := 0; r < row.repeat; r++ {
					ev, q := runIngestion(t, eng.cfg, row.script)
					evicted += ev
					quarantined += q
				}
			})
		}
	}
	// The bounded and guarded rows must reach what makes them differ from
	// the exact estimator, or they compare nothing the exact rows do not.
	if evicted == 0 || quarantined == 0 {
		t.Errorf("the scripts evicted %d pairs and quarantined %d requests; both must be positive", evicted, quarantined)
	}
}

// A refresh landing between D_i and D_j of one stride must not split the
// pair across buffers: the open stride is carried, and the pair counts
// once — not zero times, not twice — after the next cycle.
func TestRefreshMidStrideKeepsPair(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 1
	cfg.Smoothing = 0
	cfg.DecayPerDay = 1
	e := newTestEngine(t, cfg)
	e.Record("c", 1, t0)
	e.Refresh(t0.Add(time.Second)) // mid-stride: D_2 arrives a second later
	if got := e.Stats().Pairs; got != 0 {
		t.Fatalf("%d pairs published while the stride is still open", got)
	}
	e.Record("c", 2, t0.Add(2*time.Second))
	e.Refresh(t0.Add(time.Hour))
	if p := e.snap.Load().frozen.Get(1, 2); p != 1 {
		t.Errorf("p[1,2] = %v after the stride closed, want 1 (one occurrence, one pair)", p)
	}
	// A further cycle must not count the carried requests again.
	e.Record("c", 1, t0.Add(2*time.Hour))
	e.Refresh(t0.Add(3 * time.Hour))
	if p := e.snap.Load().frozen.Get(1, 2); p != 0.5 {
		t.Errorf("p[1,2] = %v after a second, unfollowed occurrence, want 0.5", p)
	}
}

// Each update cycle leaves one observation per phase it ran, and a cycle
// without a checkpoint store leaves none under "checkpoint".
func TestRefreshPhaseHistogram(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.Metrics = obs.NewRegistry()
	e := newTestEngine(t, cfg)
	feedPattern(e, 20) // ends with one explicit Refresh
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	refreshes := e.Stats().Refreshes
	for _, phase := range refreshPhaseNames {
		want := refreshes
		if phase == "checkpoint" {
			want = 0
		}
		line := fmt.Sprintf("specweb_engine_refresh_seconds_count{phase=%q} %d\n", phase, want)
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(line))
		}
	}
}
