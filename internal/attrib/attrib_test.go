package attrib

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"specweb/internal/obs"
)

func TestLedgerBasicFlow(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLedger(16, reg)
	l.Delivered("/a", ClassPush, 100, 800, "normal")
	l.Delivered("/b", ClassPush, 200, 600, "normal")
	l.Delivered("/c", ClassPrefetch, 50, 400, "no_push")
	l.Consumed("/a", ClassPush, 100)
	l.Wasted("/b", ClassPush, 200)

	r := l.Report(10)
	if r.Totals.Deliveries != 3 || r.Totals.DeliveredBytes != 350 {
		t.Errorf("totals %+v", r.Totals)
	}
	if r.Totals.ConsumedBytes != 100 || r.Totals.WastedBytes != 200 {
		t.Errorf("resolution bytes %+v", r.Totals)
	}
	if r.Outstanding != 1 { // /c unresolved
		t.Errorf("outstanding = %d, want 1", r.Outstanding)
	}
	push := r.Classes[ClassPush]
	if push.Deliveries != 2 || push.ConsumedBytes != 100 || push.WastedBytes != 200 {
		t.Errorf("push class %+v", push)
	}
	if r.Rungs["normal"] != 2 || r.Rungs["no_push"] != 1 {
		t.Errorf("rungs %+v", r.Rungs)
	}
	// Rows sorted by delivered bytes desc: /b (200), /a (100), /c (50).
	if len(r.Docs) != 3 || r.Docs[0].Doc != "/b" || r.Docs[2].Doc != "/c" {
		t.Fatalf("docs %+v", r.Docs)
	}
	if r.Docs[1].MeanPMilli != 800 {
		t.Errorf("/a mean p = %d, want 800", r.Docs[1].MeanPMilli)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`specweb_attrib_delivered_bytes_total{class="push"} 300`,
		`specweb_attrib_consumed_bytes_total{class="push"} 100`,
		`specweb_attrib_wasted_bytes_total{class="push"} 200`,
		`specweb_attrib_delivered_bytes_total{class="prefetch"} 50`,
		`specweb_attrib_deliveries_total 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestLedgerTopNTruncation(t *testing.T) {
	l := NewLedger(16, obs.NewRegistry())
	l.Delivered("/big", ClassPush, 1000, 900, "")
	l.Delivered("/mid", ClassPush, 500, 900, "")
	l.Delivered("/small", ClassPush, 10, 900, "")
	r := l.Report(2)
	if len(r.Docs) != 2 || r.Docs[0].Doc != "/big" || r.Docs[1].Doc != "/mid" {
		t.Errorf("top-2 %+v", r.Docs)
	}
	if r.TrackedDocs != 3 {
		t.Errorf("tracked = %d, want 3", r.TrackedDocs)
	}
}

// TestLedgerSpaceSavingEviction: at capacity the lightest row is evicted
// and the newcomer inherits its weight as the error bound; totals stay
// exact throughout.
func TestLedgerSpaceSavingEviction(t *testing.T) {
	l := NewLedger(2, obs.NewRegistry())
	l.Delivered("/a", ClassPush, 100, 500, "")
	l.Delivered("/b", ClassPush, 10, 500, "")
	l.Delivered("/c", ClassPush, 40, 500, "") // evicts /b (weight 10)
	r := l.Report(10)
	if r.Totals.DeliveredBytes != 150 {
		t.Errorf("totals drifted: %+v", r.Totals)
	}
	if r.EvictedDocs != 1 || r.TrackedDocs != 2 {
		t.Errorf("evicted=%d tracked=%d", r.EvictedDocs, r.TrackedDocs)
	}
	var c *DocStat
	for i := range r.Docs {
		if r.Docs[i].Doc == "/c" {
			c = &r.Docs[i]
		}
		if r.Docs[i].Doc == "/b" {
			t.Error("/b still tracked after eviction")
		}
	}
	if c == nil || c.ErrBytes != 10 {
		t.Errorf("/c row %+v, want ErrBytes=10", c)
	}
	// Resolving the evicted doc still lands in the exact totals.
	l.Wasted("/b", ClassPush, 10)
	if got := l.Report(0).Totals.WastedBytes; got != 10 {
		t.Errorf("wasted bytes = %d, want 10", got)
	}
}

// TestLedgerDeterministicAcrossOrders: the same operation multiset,
// applied in different interleavings (and concurrently), yields a
// byte-identical report when capacity covers all docs. This is the
// property the benchmark conformance suite leans on.
func TestLedgerDeterministicAcrossOrders(t *testing.T) {
	type op struct {
		doc, class string
		bytes, pm  int64
		kind       int // 0 delivered, 1 consumed, 2 wasted
	}
	var ops []op
	docs := []string{"/a", "/b", "/c", "/d", "/e"}
	for i, d := range docs {
		for j := 0; j < 4; j++ {
			ops = append(ops, op{d, ClassPush, int64(100 + 10*i + j), int64(500 + i), 0})
			if j%2 == 0 {
				ops = append(ops, op{d, ClassPush, int64(100 + 10*i + j), int64(500 + i), 1})
			} else {
				ops = append(ops, op{d, ClassPush, int64(100 + 10*i + j), 0, 2})
			}
		}
	}
	apply := func(l *Ledger, o op) {
		switch o.kind {
		case 0:
			l.Delivered(o.doc, o.class, o.bytes, o.pm, "normal")
		case 1: // by someone who knows the probability: the calibration table commutes too
			l.Resolved(o.doc, o.class, o.bytes, o.pm, true)
		case 2:
			l.Wasted(o.doc, o.class, o.bytes)
		}
	}
	render := func(l *Ledger) string {
		b, err := json.Marshal(l.Report(100))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	fwd := NewLedger(len(docs), obs.NewRegistry())
	for _, o := range ops {
		apply(fwd, o)
	}
	rev := NewLedger(len(docs), obs.NewRegistry())
	for i := len(ops) - 1; i >= 0; i-- {
		apply(rev, ops[i])
	}
	conc := NewLedger(len(docs), obs.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += 4 {
				apply(conc, ops[i])
			}
		}(w)
	}
	wg.Wait()

	a, b, c := render(fwd), render(rev), render(conc)
	if a != b {
		t.Errorf("forward vs reverse reports differ:\n%s\n%s", a, b)
	}
	if a != c {
		t.Errorf("sequential vs concurrent reports differ:\n%s\n%s", a, c)
	}
}

// TestLedgerCalibration: a delivery enters its class's table when it is
// resolved with its probability, in the decile that probability falls in
// (p = 1 in the last); a resolution that does not know it stays out; shard
// exports sum to the single ledger's table.
func TestLedgerCalibration(t *testing.T) {
	type res struct {
		class    string
		pMilli   int64
		consumed bool
	}
	all := []res{
		{ClassPrefetch, 0, false}, {ClassPrefetch, 99, true}, {ClassPrefetch, 100, true},
		{ClassPrefetch, 549, false}, {ClassPrefetch, 550, true}, {ClassPrefetch, 999, true},
		{ClassPrefetch, 1000, true}, {ClassPrefetch, 5000, false}, // clamped like Delivered's
		{ClassPrefetch, PUnknown, true},
		{ClassPush, 950, true}, {ClassPush, PUnknown, false},
	}
	var want Calibration
	want[0] = CalBucket{Deliveries: 2, Consumed: 1}
	want[1] = CalBucket{Deliveries: 1, Consumed: 1}
	want[5] = CalBucket{Deliveries: 2, Consumed: 1}
	want[9] = CalBucket{Deliveries: 3, Consumed: 2}

	whole := NewLedger(4, obs.NewRegistry())
	shards := []*Ledger{NewLedger(4, obs.NewRegistry()), NewLedger(4, obs.NewRegistry())}
	for i, r := range all {
		for _, l := range []*Ledger{whole, shards[i%2]} {
			l.Delivered("/d", r.class, 10, r.pMilli, "")
			l.Resolved("/d", r.class, 10, r.pMilli, r.consumed)
		}
	}
	rep := whole.Report(0)
	if got := rep.Calibration[ClassPrefetch]; got != want {
		t.Errorf("prefetch table\n got %+v\nwant %+v", got, want)
	}
	if got := rep.Calibration[ClassPush]; got[9] != (CalBucket{Deliveries: 1, Consumed: 1}) {
		t.Errorf("push table %+v", got)
	}
	if rep.Totals.Consumed+rep.Totals.Wasted != int64(len(all)) || rep.Outstanding != 0 {
		t.Errorf("resolutions without a probability must still count: %+v", rep.Totals)
	}
	merged, err := MergeExports([]*Export{shards[0].Export(), shards[1].Export()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Calibration, rep.Calibration) {
		t.Errorf("merged shards\n got %+v\nwant %+v", merged.Calibration, rep.Calibration)
	}
	if rep := NewLedger(4, obs.NewRegistry()).Report(0); rep.Calibration != nil {
		t.Errorf("empty ledger renders a calibration section: %+v", rep.Calibration)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Delivered("/a", ClassPush, 1, 1, "normal")
	l.Consumed("/a", ClassPush, 1)
	l.Wasted("/a", ClassPush, 1)
	l.Resolved("/a", ClassPush, 1, 500, true)
	if l.Report(5) != nil {
		t.Error("nil ledger produced a report")
	}
}

func TestLedgerHandler(t *testing.T) {
	l := NewLedger(8, obs.NewRegistry())
	l.Delivered("/a", ClassPush, 100, 700, "normal")
	l.Consumed("/a", ClassPush, 100)
	rec := httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/attrib?top=5", nil))
	var r Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	want := Totals{Deliveries: 1, DeliveredBytes: 100, Consumed: 1,
		ConsumedBytes: 100, PMilliSum: 700}
	if !reflect.DeepEqual(r.Totals, want) {
		t.Errorf("totals %+v, want %+v", r.Totals, want)
	}
	if len(r.Docs) != 1 || r.Docs[0].Doc != "/a" {
		t.Errorf("docs %+v", r.Docs)
	}
}
