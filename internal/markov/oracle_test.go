package markov

import (
	"fmt"
	"math"
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
	if !reflect.DeepEqual(flat.Freeze(nil), Freeze(want)) {
		t.Fatal("Freeze(nil) differs from Freeze(oracle.Snapshot())")
	}
	for name, scale := range scales {
		m := oracle.Snapshot()
		for _, i := range m.Docs() {
			m.ScaleRow(i, scale(i))
		}
		if got := flat.Freeze(scale); !reflect.DeepEqual(got, Freeze(m)) {
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
	if f := flat.Freeze(nil); cycles < 30 || f.NumPairs() < 10000 {
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
	// Multi-day seeds: three clients revisit a few documents a second or
	// two apart while each day's favourites shift, so rows carry their
	// frozen order from day to day, successors rise past others and arrive
	// mid-row, and — at decay 1e-4 (modes 11 and 15) — are culled.
	for _, mode := range []uint8{1, 5, 11, 15, 26} {
		var data []byte
		for day := 0; day < 6; day++ {
			for n := 0; n < 24; n++ {
				client, gap := n%3, 1+n%2
				data = append(data, byte(client+3*gap), byte((n*(day+1)+day)%9))
			}
		}
		f.Add(data, mode, mode%2 == 1)
	}
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

// keptOrderDay is one cycle of traffic for TestKeptOrderMerge: each
// session is a client of its own requesting its documents a second apart.
func keptOrderDay(day int, sessions ...[]webgraph.DocID) *trace.Trace {
	tr := &trace.Trace{}
	for c, s := range sessions {
		for k, doc := range s {
			tr.Requests = append(tr.Requests, trace.Request{
				Time:   t0.Add(time.Duration(day)*24*time.Hour + time.Duration(k)*time.Second),
				Client: trace.ClientID(fmt.Sprintf("c%d", c)),
				Doc:    doc,
			})
		}
	}
	return tr
}

// follow is n sessions in which document 0 is followed by j.
func follow(n int, j webgraph.DocID) [][]webgraph.DocID {
	s := make([][]webgraph.DocID, n)
	for k := range s {
		s[k] = []webgraph.DocID{0, j}
	}
	return s
}

// sessions concatenates session lists.
func sessions(parts ...[][]webgraph.DocID) [][]webgraph.DocID {
	var out [][]webgraph.DocID
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// rowDocs lists a frozen row's successors in order.
func rowDocs(row []Successor) []webgraph.DocID {
	docs := make([]webgraph.DocID, len(row))
	for k, s := range row {
		docs[k] = s.Doc
	}
	return docs
}

// TestKeptOrderMerge drives one Aging through cycles built to take each
// path of the freeze's kept-order merge — an entry set aside because it
// rose, a new arrival merged mid-row, positions remapped by a decay cull,
// DocID deciding between equal probabilities, a row frozen again after
// MinOccurrences dropped it — and holds every freeze to
// Freeze(oracle.Snapshot()). Each day compares twice, so Freeze(nil) and
// Freeze(scale) alternate on one state; check then confirms that document
// 0's row took the shape the case is named for.
func TestKeptOrderMerge(t *testing.T) {
	// One ulp below 1: a count seen once and aged a cycle reads 2 − 2⁻⁵²,
	// next to a count of 2 seen in one cycle.
	ulpDecay := 1 - math.Ldexp(1, -52)
	for _, tc := range []struct {
		name     string
		decay    float64
		minOcc   int
		smooth   float64
		days     [][][]webgraph.DocID
		extraCut map[string]func(webgraph.DocID) float64
		check    func(t *testing.T, day int, a *Aging, row []Successor)
	}{
		{
			name: "rise past many", decay: 0.97, minOcc: 1, smooth: 2,
			days: [][][]webgraph.DocID{
				sessions(follow(10, 1), follow(9, 2), follow(8, 3), follow(7, 4), follow(6, 5),
					follow(5, 6), follow(4, 7), follow(3, 8), follow(2, 9), follow(1, 10)),
				follow(30, 10),
				// Read in kept order 8 before 9, set aside, sorted 9 first.
				sessions(follow(60, 8), follow(70, 9)),
			},
			check: func(t *testing.T, day int, a *Aging, row []Successor) {
				want := [][]webgraph.DocID{
					{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
					{10, 1, 2, 3, 4, 5, 6, 7, 8, 9},
					{9, 8, 10, 1, 2, 3, 4, 5, 6, 7},
				}[day]
				if got := rowDocs(row); !reflect.DeepEqual(got, want) {
					t.Fatalf("day %d: row %v, want %v", day, got, want)
				}
			},
		},
		{
			name: "new successor mid-row", decay: 0.97, minOcc: 1, smooth: 2,
			days: [][][]webgraph.DocID{
				sessions(follow(10, 1), follow(8, 2), follow(6, 3), follow(4, 4)),
				follow(5, 5),
			},
			check: func(t *testing.T, day int, a *Aging, row []Successor) {
				want := [][]webgraph.DocID{{1, 2, 3, 4}, {1, 2, 3, 5, 4}}[day]
				if got := rowDocs(row); !reflect.DeepEqual(got, want) {
					t.Fatalf("day %d: row %v, want %v", day, got, want)
				}
			},
		},
		{
			// At 1e-4 a day, what day 0 counted falls under the 1e-9 cull
			// on day 3 while later arrivals survive, so positions shift and
			// the kept order and index are rebuilt; day 4 counts through
			// the rebuilt index.
			name: "decay cull", decay: 1e-4, minOcc: 1, smooth: 2,
			days: [][][]webgraph.DocID{
				sessions(follow(1, 1), follow(2, 2), follow(1, 3)),
				sessions(follow(2, 4), follow(1, 5)),
				sessions(follow(1, 5), follow(1, 6), follow(1, 4)),
				sessions(follow(1, 6), follow(1, 7)),
				sessions(follow(1, 4), follow(2, 7), follow(1, 8)),
			},
			check: func(t *testing.T, day int, a *Aging, row []Successor) {
				if day < 3 {
					return
				}
				if len(row) == 0 {
					t.Fatalf("day %d: row culled whole", day)
				}
				for _, s := range row {
					if s.Doc <= 3 {
						t.Fatalf("day %d: %d outlived the cull: %v", day, s.Doc, rowDocs(row))
					}
				}
			},
		},
		{
			// Counts 2 − 2⁻⁵² (doc 7) and 2 (doc 3) over 3 + 3 both read
			// P = 2/3; doc 3 arrives after doc 7 and must merge before it.
			name: "equal P, DocID breaks the tie", decay: ulpDecay, minOcc: 1, smooth: 3,
			days: [][][]webgraph.DocID{
				{{0, 7}},
				{{0, 3, 7}, {0, 3}},
			},
			check: func(t *testing.T, day int, a *Aging, row []Successor) {
				if day == 0 {
					return
				}
				c := a.acc.counts()[0]
				if c[3] == c[7] || len(row) != 2 || row[0].P != row[1].P || row[0].Doc != 3 {
					t.Fatalf("counts %v, row %v: want unequal counts, equal P, doc 3 first", c, row)
				}
			},
		},
		{
			// The same counts over 3 + 2 read apart by an ulp, doc 7
			// first; damped by 0.37 they round equal and doc 3 goes first.
			name: "damping rounds two P equal", decay: ulpDecay, minOcc: 1, smooth: 2,
			days: [][][]webgraph.DocID{
				{{0, 3}},
				{{0, 7, 3}, {0, 7}},
			},
			extraCut: map[string]func(webgraph.DocID) float64{
				"0.37": func(webgraph.DocID) float64 { return 0.37 },
			},
			check: func(t *testing.T, day int, a *Aging, row []Successor) {
				if day == 0 {
					return
				}
				if got := rowDocs(row); !reflect.DeepEqual(got, []webgraph.DocID{7, 3}) || row[0].P == row[1].P {
					t.Fatalf("unscaled row %v: want doc 7 above doc 3", row)
				}
				f := a.Freeze(func(webgraph.DocID) float64 { return 0.37 })
				if damped := f.SortedRow(0); len(damped) != 2 || damped[0].P != damped[1].P || damped[0].Doc != 3 {
					t.Fatalf("damped row %v: want equal P, doc 3 first", damped)
				}
			},
		},
		{
			// Support 3, then 2.5 (dropped; doc 3 arrives unfrozen), then
			// 5.25: the row is frozen again from its day-0 order with two
			// days of arrivals behind it.
			name: "row crosses MinOccurrences both ways", decay: 0.5, minOcc: 3, smooth: 2,
			days: [][][]webgraph.DocID{
				sessions(follow(2, 1), follow(1, 2)),
				follow(1, 3),
				sessions(follow(2, 2), follow(1, 4), follow(1, 1)),
			},
			check: func(t *testing.T, day int, a *Aging, row []Successor) {
				want := [][]webgraph.DocID{{1, 2}, {}, {2, 1, 4, 3}}[day]
				if got := rowDocs(row); !reflect.DeepEqual(got, want) {
					t.Fatalf("day %d: row %v, want %v", day, got, want)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := EstimateConfig{
				Window:         5 * time.Second,
				StrideTimeout:  5 * time.Second,
				MinOccurrences: tc.minOcc,
				Smoothing:      tc.smooth,
			}
			flat := NewAging(tc.decay, cfg)
			oracle := newMapAging(tc.decay, cfg, false)
			scales := testScales()
			for name, scale := range tc.extraCut {
				scales[name] = scale
			}
			for day, ss := range tc.days {
				tr := keptOrderDay(day, ss...)
				if err := flat.AddDay(tr); err != nil {
					t.Fatal(err)
				}
				oracle.AddDay(tr)
				agreeWithOracle(t, flat, oracle, scales)
				agreeWithOracle(t, flat, oracle, scales)
				tc.check(t, day, flat, flat.Freeze(nil).SortedRow(0))
			}
		})
	}
}

// The one-shot estimates run the same flat store and traversal — Estimate
// for P, and a fresh transitive Aging frozen once for P*, as the simulator
// builds each cycle — so hold them to the oracle too, on a trace with
// repeats inside strides.
func TestEstimateMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(99)
	tr := boundedRandTrace(rng, 9, 600)
	for _, transitive := range []bool{false, true} {
		for _, stride := range []time.Duration{0, 5 * time.Second, 20 * time.Second} {
			cfg := DefaultEstimate()
			cfg.StrideTimeout = stride
			oracle := newMapAging(1, cfg, transitive)
			oracle.AddDay(tr)
			if transitive {
				if !reflect.DeepEqual(transitiveAging(t, tr, cfg).Freeze(nil), Freeze(oracle.Snapshot())) {
					t.Errorf("stride=%v: transitive freeze differs from the oracle", stride)
				}
				continue
			}
			got, err := Estimate(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !matricesIdentical(got, oracle.Snapshot()) {
				t.Errorf("stride=%v: estimate differs from the oracle", stride)
			}
		}
	}
}
