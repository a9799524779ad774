package markov

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// mapAging is the exact estimator as it stood before its store went flat:
// a map of maps, a fresh `seen` set per request, trace.Segment, Matrix.Set.
// It is kept verbatim as the reference the flat store, the link-based
// traversal and the direct freeze are held to, bit for bit.
type mapAging struct {
	decay      float64
	transitive bool
	cfg        EstimateConfig
	counts     map[webgraph.DocID]map[webgraph.DocID]float64
	occ        map[webgraph.DocID]float64
}

func newMapAging(decay float64, cfg EstimateConfig, transitive bool) *mapAging {
	return &mapAging{
		decay:      decay,
		transitive: transitive,
		cfg:        cfg,
		counts:     make(map[webgraph.DocID]map[webgraph.DocID]float64),
		occ:        make(map[webgraph.DocID]float64),
	}
}

func (a *mapAging) addOcc(i webgraph.DocID) { a.occ[i]++ }

func (a *mapAging) addPair(i, j webgraph.DocID) {
	row := a.counts[i]
	if row == nil {
		row = make(map[webgraph.DocID]float64)
		a.counts[i] = row
	}
	row[j]++
}

func (a *mapAging) AddDay(day *trace.Trace) {
	for i, row := range a.counts {
		for j := range row {
			row[j] *= a.decay
			if row[j] < 1e-9 {
				delete(row, j)
			}
		}
		if len(row) == 0 {
			delete(a.counts, i)
		}
	}
	for i := range a.occ {
		a.occ[i] *= a.decay
		if a.occ[i] < 1e-9 {
			delete(a.occ, i)
		}
	}
	mapAccumulateTrace(day, a.cfg, a.transitive, a)
}

func mapAccumulateTrace(tr *trace.Trace, cfg EstimateConfig, transitive bool, sink pairSink) {
	strideTimeout := cfg.StrideTimeout
	if transitive && strideTimeout <= 0 {
		strideTimeout = cfg.Window
	}
	byClient := tr.ByClient()
	clients := make([]trace.ClientID, 0, len(byClient))
	for c := range byClient {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(a, b int) bool { return clients[a] < clients[b] })
	for _, c := range clients {
		reqs := byClient[c]
		segments := [][]trace.Request{reqs}
		if strideTimeout > 0 {
			segments = trace.Segment(reqs, strideTimeout)
		}
		for _, seg := range segments {
			for x := range seg {
				i := seg[x].Doc
				if i == webgraph.None {
					continue
				}
				sink.addOcc(i)
				var seen map[webgraph.DocID]bool
				for y := x + 1; y < len(seg); y++ {
					if !transitive && seg[y].Time.Sub(seg[x].Time) > cfg.Window {
						break
					}
					j := seg[y].Doc
					if j == webgraph.None || j == i {
						continue
					}
					if seen == nil {
						seen = make(map[webgraph.DocID]bool)
					}
					if seen[j] {
						continue
					}
					seen[j] = true
					sink.addPair(i, j)
				}
			}
		}
	}
}

func (a *mapAging) Snapshot() *Matrix {
	m := NewMatrix()
	min := float64(a.cfg.MinOccurrences)
	if min < 1 {
		min = 1
	}
	for i, row := range a.counts {
		if a.occ[i] < min {
			continue
		}
		den := a.occ[i] + a.cfg.Smoothing
		for j, c := range row {
			p := c / den
			if p > 1 {
				p = 1
			}
			m.Set(i, j, p)
		}
	}
	return m
}

func (a *mapAging) Pairs() int {
	n := 0
	for _, row := range a.counts {
		n += len(row)
	}
	return n
}

// counts returns the flat store's live pair counts in the oracle's shape
// (empty rows absent), for comparison and for tests that need the true
// count behind a bounded entry.
func (a *pairAccumulator) counts() map[webgraph.DocID]map[webgraph.DocID]float64 {
	out := make(map[webgraph.DocID]map[webgraph.DocID]float64)
	for s, row := range a.rows {
		if len(row.succ) == 0 {
			continue
		}
		m := make(map[webgraph.DocID]float64, len(row.succ))
		for k, j := range row.succ {
			m[j] = row.count[k]
		}
		out[a.docs[s]] = m
	}
	return out
}

// agreeWithOracle holds a flat estimator to the oracle after the same
// AddDay sequence: stored counts, occurrences, Pairs, tracked rows, the
// Matrix, and the frozen bytes — unscaled and under each trust function.
func agreeWithOracle(t testing.TB, flat *Aging, oracle *mapAging, scales map[string]func(webgraph.DocID) float64) {
	t.Helper()
	if got := flat.acc.counts(); !reflect.DeepEqual(got, oracle.counts) {
		t.Fatalf("stored counts differ from the oracle's:\n got %v\nwant %v", got, oracle.counts)
	}
	for s, i := range flat.acc.docs {
		if got, want := flat.acc.occ[s], oracle.occ[i]; got != want {
			t.Fatalf("occurrences of %d = %v, oracle %v", i, got, want)
		}
	}
	for i, want := range oracle.occ {
		if got := flat.Occurrences(i); got != want {
			t.Fatalf("Occurrences(%d) = %v, oracle %v", i, got, want)
		}
	}
	if got, want := flat.Pairs(), oracle.Pairs(); got != want {
		t.Fatalf("Pairs() = %d, oracle %d", got, want)
	}
	if st := flat.EstimatorStats(); st.TrackedRows != len(oracle.counts) || st.TrackedPairs != oracle.Pairs() {
		t.Fatalf("EstimatorStats rows/pairs = %d/%d, oracle %d/%d",
			st.TrackedRows, st.TrackedPairs, len(oracle.counts), oracle.Pairs())
	}
	want := oracle.Snapshot()
	if got := flat.Snapshot(); !matricesIdentical(got, want) {
		t.Fatal("Snapshot() differs from the oracle's")
	}
	direct, patched := flat.Freeze(nil)
	if patched {
		t.Fatal("exact estimator reported a patched freeze")
	}
	if !reflect.DeepEqual(direct, Freeze(want)) {
		t.Fatal("Freeze(nil) differs from Freeze(oracle.Snapshot())")
	}
	for name, scale := range scales {
		m := oracle.Snapshot()
		for _, i := range m.Docs() {
			m.ScaleRow(i, scale(i))
		}
		if got, _ := flat.Freeze(scale); !reflect.DeepEqual(got, Freeze(m)) {
			t.Fatalf("Freeze(%s) differs from Freeze of the row-scaled oracle snapshot", name)
		}
	}
}

// testScales are trust functions covering each of ScaleRow's branches: a
// dropped row (0), damped rows in (0,1) — one small enough to push entries
// under the 1e-9 cull — and untouched rows (≥ 1).
func testScales() map[string]func(webgraph.DocID) float64 {
	return map[string]func(webgraph.DocID) float64{
		"mixed": func(i webgraph.DocID) float64 {
			switch uint32(i) % 5 {
			case 0:
				return 0
			case 1:
				return 0.37
			case 2:
				return 1
			case 3:
				return 1e-10
			}
			return 2.5
		},
		"zero": func(webgraph.DocID) float64 { return 0 },
		"half": func(webgraph.DocID) float64 { return 0.5 },
		"one":  func(webgraph.DocID) float64 { return 1 },
	}
}

// departmentTrace is the benchmark of record's learn-online input: the
// department site, 30 days of 220 sessions.
func departmentTrace(t testing.TB) *trace.Trace {
	t.Helper()
	profile, err := webgraph.ProfileByName("department")
	if err != nil {
		t.Fatal(err)
	}
	root := stats.NewRNG(1995)
	site, err := webgraph.Generate(profile, root.Split("site"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DefaultConfig(site, nil)
	cfg.Days = 30
	cfg.SessionsPerDay = 220
	res, err := synth.Generate(cfg, root.Split("trace"))
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// The tentpole identity: over the 30-day department trace, folded a day at
// a time as the engine does, the direct freeze equals Freeze(Snapshot())
// of the map-of-maps oracle at every cycle — unscaled and under trust
// functions that drop, damp and leave rows — and so do the stored counts.
func TestDirectFreezeMatchesFreezeOfSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("30-day department trace")
	}
	tr := departmentTrace(t)
	first, last, _ := tr.Span()
	cfg := DefaultEstimate()
	cfg.MinOccurrences = 5 // the engine's default
	flat := NewAging(0.97, cfg)
	flat.Transitive = true
	oracle := newMapAging(0.97, cfg, true)
	scales := testScales()
	cycles := 0
	for from := first; !from.After(last); from = from.Add(24 * time.Hour) {
		day := tr.Window(from, from.Add(24*time.Hour))
		if err := flat.AddDay(day); err != nil {
			t.Fatal(err)
		}
		oracle.AddDay(day)
		agreeWithOracle(t, flat, oracle, scales)
		cycles++
	}
	if f, _ := flat.Freeze(nil); cycles < 30 || f.NumPairs() < 10000 {
		t.Fatalf("%d cycles, %d frozen pairs: the trace no longer exercises the store", cycles, f.NumPairs())
	}
}

// FuzzExactAccumulator drives the flat store and the oracle with the same
// random (client, document, gap) streams — sparse, negative and None
// document IDs included — over several decayed days, half of them at a
// decay harsh enough that entries are culled at 1e-9, and compares
// everything agreeWithOracle does after every day.
func FuzzExactAccumulator(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"), uint8(0), false)
	f.Add([]byte("speculative data dissemination and service"), uint8(1), true)
	f.Add([]byte("\xff\xfe\xfd\x00\x00\x00\x01\x01\x01\x80\x80\x80\x7f\x7f\x7f"), uint8(2), true)
	f.Add([]byte("abcabcabcabcabcabcabcabcabcabcabcabcabc"), uint8(5), false)
	docs := []webgraph.DocID{0, 1, 2, 3, 4, 5, 6, 7, 40, 41, 5000, denseDocLimit, 1<<31 - 1,
		webgraph.None, -2, -1 << 31}
	clients := []trace.ClientID{"a", "b", "c"}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, transitive bool) {
		// 1e-4 reaches the 1e-9 cull within three days of a count of 1.
		decay := []float64{1, 0.97, 0.5, 1e-4}[mode%4]
		cfg := EstimateConfig{
			Window:         5 * time.Second,
			StrideTimeout:  time.Duration(mode/4%2) * 5 * time.Second,
			MinOccurrences: int(mode / 8 % 3),
			Smoothing:      float64(mode / 24 % 3),
		}
		flat := NewAging(decay, cfg)
		flat.Transitive = transitive
		oracle := newMapAging(decay, cfg, transitive)
		scales := testScales()
		at := make([]time.Duration, len(clients))
		const perDay = 24
		for len(data) >= 2 {
			day := &trace.Trace{}
			for n := 0; n < perDay && len(data) >= 2; n++ {
				b0, b1 := data[0], data[1]
				data = data[2:]
				c := int(b0) % len(clients)
				at[c] += time.Duration(b0/3%8) * time.Second
				day.Requests = append(day.Requests, trace.Request{
					Time:   t0.Add(at[c]),
					Client: clients[c],
					Doc:    docs[int(b1)%len(docs)],
				})
			}
			if err := flat.AddDay(day); err != nil {
				t.Fatal(err)
			}
			oracle.AddDay(day)
			agreeWithOracle(t, flat, oracle, scales)
		}
	})
}

// The one-shot estimators run the same flat store and traversal; hold them
// to the oracle too, on a trace with repeats inside strides.
func TestEstimateMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(99)
	tr := boundedRandTrace(rng, 9, 600)
	for _, transitive := range []bool{false, true} {
		for _, stride := range []time.Duration{0, 5 * time.Second, 20 * time.Second} {
			cfg := DefaultEstimate()
			cfg.StrideTimeout = stride
			oracle := newMapAging(1, cfg, transitive)
			oracle.AddDay(tr)
			estimate := Estimate
			if transitive {
				estimate = EstimateTransitive
			}
			got, err := estimate(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !matricesIdentical(got, oracle.Snapshot()) {
				t.Errorf("transitive=%v stride=%v: estimate differs from the oracle", transitive, stride)
			}
		}
	}
}
