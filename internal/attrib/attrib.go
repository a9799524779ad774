// Package attrib is the speculation attribution ledger: it answers, per
// document and per delivery class, which speculative bytes were later
// *consumed* by a demand request and which were *wasted* (evicted,
// replaced, or never used).
//
// The paper's ratios (§3.3) only report aggregate traffic; attribution is
// the per-object signal that online re-allocation needs — eqs. 4–8 decide
// per node, so a tuner must know *which* pushes pay off, not just how
// many. Cardinality is bounded by a space-saving top-K sketch so a
// million-document site cannot blow up /metrics or a stats endpoint; when
// the capacity is at least the number of distinct documents the sketch is
// exact and — because every update is a commutative integer add — the
// report is byte-deterministic regardless of the order concurrent
// requests land in. The benchmark harness relies on that to keep
// BENCH.json identical across worker counts.
package attrib

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"specweb/internal/obs"
)

// Delivery classes: how speculative bytes reached the consumer's cache.
const (
	// ClassPush: embedded in a bundle by the server's push decision.
	ClassPush = "push"
	// ClassPrefetch: pulled by the client on a Link hint.
	ClassPrefetch = "prefetch"
	// ClassReplica: disseminated to a proxy replica set.
	ClassReplica = "replica"
)

// PMilli converts a probability to the ledger's fixed-point thousandths
// (clamped to [0,1]): integer sums are associative, float sums are not,
// which is what keeps reports identical across operation orderings.
func PMilli(p float64) int64 {
	if math.IsNaN(p) || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1000
	}
	return int64(p*1000 + 0.5)
}

// ClampPMilli bounds an externally supplied fixed-point probability to
// the valid [0, 1000] range. Header parsers use it so a forged or
// malformed Spec-P value cannot poison the ledger's confidence sums.
func ClampPMilli(pMilli int64) int64 {
	if pMilli < 0 {
		return 0
	}
	if pMilli > 1000 {
		return 1000
	}
	return pMilli
}

// PUnknown stands in for the advertised probability when whoever resolves
// a delivery does not know it; such a resolution stays out of the
// calibration table.
const PUnknown int64 = -1

// CalBucket is one decile of a class's calibration table: the deliveries
// advertised at a probability inside it whose fate is known, and how many
// of those were consumed. Consumed/Deliveries set against the decile's
// bounds says whether the probabilities the engine advertises come true.
type CalBucket struct {
	Deliveries int64 `json:"deliveries"`
	Consumed   int64 `json:"consumed"`
}

// Calibration is the reliability table of one class: bucket i holds the
// deliveries advertised at p in [i/10, (i+1)/10), the last one p = 1 too.
type Calibration [10]CalBucket

// String renders the occupied deciles, each as its lower edge and consumed
// over deliveries: "0.2 163/353=0.46  0.3 254/499=0.51".
func (c Calibration) String() string {
	var b strings.Builder
	for i, k := range c {
		if k.Deliveries == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%.1f %d/%d=%.2f", float64(i)/10, k.Consumed, k.Deliveries,
			float64(k.Consumed)/float64(k.Deliveries))
	}
	return b.String()
}

func (c *Calibration) add(o Calibration) {
	for i := range c {
		c[i].Deliveries += o[i].Deliveries
		c[i].Consumed += o[i].Consumed
	}
}

// Totals aggregates one slice of the ledger (overall, or one class).
// Everything is integer so concurrent accumulation is order-independent.
type Totals struct {
	Deliveries     int64 `json:"deliveries"`
	DeliveredBytes int64 `json:"delivered_bytes"`
	Consumed       int64 `json:"consumed"`
	ConsumedBytes  int64 `json:"consumed_bytes"`
	Wasted         int64 `json:"wasted"`
	WastedBytes    int64 `json:"wasted_bytes"`
	// PMilliSum sums the engine probability of each delivery in
	// thousandths (fixed-point so sums don't depend on addition order).
	PMilliSum int64 `json:"p_milli_sum"`
}

func (t *Totals) delivered(bytes, pMilli int64) {
	t.Deliveries++
	t.DeliveredBytes += bytes
	t.PMilliSum += pMilli
}

// DocStat is one document's attribution row.
type DocStat struct {
	Doc            string `json:"doc"`
	Deliveries     int64  `json:"deliveries"`
	DeliveredBytes int64  `json:"delivered_bytes"`
	Consumed       int64  `json:"consumed"`
	ConsumedBytes  int64  `json:"consumed_bytes"`
	Wasted         int64  `json:"wasted"`
	WastedBytes    int64  `json:"wasted_bytes"`
	// MeanPMilli is the mean delivery probability in thousandths
	// (integer division, so it is deterministic).
	MeanPMilli int64 `json:"mean_p_milli"`
	// ErrBytes is the space-saving overestimation bound inherited when
	// this row evicted another; 0 means the row is exact.
	ErrBytes int64 `json:"err_bytes,omitempty"`
}

// entry is the in-sketch state for one tracked document.
type entry struct {
	doc    string
	stats  DocStat
	weight int64 // DeliveredBytes + inherited error; the eviction key
}

// Report is the rendered ledger: overall and per-class totals, the
// per-rung delivery tally, and the top-K document rows.
type Report struct {
	Totals Totals `json:"totals"`
	// Outstanding = deliveries not yet resolved either way. A clean
	// benchmark run drains this to zero before reporting.
	Outstanding int64 `json:"outstanding"`
	// Classes maps push/prefetch/replica to their slice of the totals
	// (encoding/json renders map keys sorted, keeping output stable).
	Classes map[string]Totals `json:"classes,omitempty"`
	// Rungs tallies deliveries by the governor rung they were decided
	// under — the degradation ladder's footprint on speculation.
	Rungs map[string]int64 `json:"rungs,omitempty"`
	// Calibration holds, per class, the resolved deliveries by the decile
	// of the probability they were advertised at. A delivery enters it
	// when it is resolved by someone who knows that probability (Resolved),
	// so a bucket's ratio is never diluted by deliveries still outstanding.
	Calibration map[string]Calibration `json:"calibration,omitempty"`
	// Docs are the heaviest documents by delivered bytes (ties broken by
	// path), at most the requested top-N.
	Docs []DocStat `json:"docs,omitempty"`
	// TrackedDocs / EvictedDocs describe sketch occupancy: EvictedDocs>0
	// means per-doc rows are approximate (totals are always exact).
	TrackedDocs int   `json:"tracked_docs"`
	EvictedDocs int64 `json:"evicted_docs,omitempty"`
}

// Ledger accumulates speculation attribution. All methods are safe for
// concurrent use and safe on a nil *Ledger (no-ops), so instrumentation
// sites never need a nil check.
type Ledger struct {
	capacity int

	mu      sync.Mutex
	total   Totals
	classes map[string]*Totals
	rungs   map[string]int64
	calib   map[string]*Calibration
	docs    map[string]*entry
	evicted int64

	deliveredB *obs.Counter
	consumedB  *obs.Counter
	wastedB    *obs.Counter
	deliveredC map[string]*obs.Counter
	consumedC  map[string]*obs.Counter
	wastedC    map[string]*obs.Counter
}

// NewLedger builds a ledger tracking at most capacity distinct documents
// (minimum 1; size it at or above the site's document count for exact,
// order-independent per-doc rows). reg selects the metrics registry for
// the specweb_attrib_* families; nil means obs.Default.
func NewLedger(capacity int, reg *obs.Registry) *Ledger {
	if capacity < 1 {
		capacity = 1
	}
	l := &Ledger{
		capacity:   capacity,
		classes:    make(map[string]*Totals, 3),
		rungs:      make(map[string]int64, 4),
		calib:      make(map[string]*Calibration, 3),
		docs:       make(map[string]*entry, capacity),
		deliveredC: make(map[string]*obs.Counter, 3),
		consumedC:  make(map[string]*obs.Counter, 3),
		wastedC:    make(map[string]*obs.Counter, 3),
	}
	for _, class := range []string{ClassPush, ClassPrefetch, ClassReplica} {
		lbl := obs.Labels{"class": class}
		l.deliveredC[class] = reg.Counter("specweb_attrib_delivered_bytes_total",
			"Speculative bytes delivered, by class.", lbl)
		l.consumedC[class] = reg.Counter("specweb_attrib_consumed_bytes_total",
			"Speculative bytes later served from cache by a demand request, by class.", lbl)
		l.wastedC[class] = reg.Counter("specweb_attrib_wasted_bytes_total",
			"Speculative bytes evicted/replaced/expired unused, by class.", lbl)
	}
	l.deliveredB = reg.Counter("specweb_attrib_deliveries_total",
		"Speculative deliveries recorded by the ledger.", nil)
	l.consumedB = reg.Counter("specweb_attrib_consumed_total",
		"Speculative deliveries resolved as consumed.", nil)
	l.wastedB = reg.Counter("specweb_attrib_wasted_total",
		"Speculative deliveries resolved as wasted.", nil)
	return l
}

func (l *Ledger) classTotals(class string) *Totals {
	t, ok := l.classes[class]
	if !ok {
		t = &Totals{}
		l.classes[class] = t
	}
	return t
}

// track returns the sketch entry for doc, admitting it via space-saving
// eviction when the sketch is full: the minimum-weight row is replaced
// and the newcomer inherits its weight as an error bound.
func (l *Ledger) track(doc string) *entry {
	if e, ok := l.docs[doc]; ok {
		return e
	}
	if len(l.docs) < l.capacity {
		e := &entry{doc: doc, stats: DocStat{Doc: doc}}
		l.docs[doc] = e
		return e
	}
	var victim *entry
	for _, e := range l.docs {
		if victim == nil || e.weight < victim.weight ||
			(e.weight == victim.weight && e.doc < victim.doc) {
			victim = e
		}
	}
	delete(l.docs, victim.doc)
	l.evicted++
	e := &entry{doc: doc, weight: victim.weight,
		stats: DocStat{Doc: doc, ErrBytes: victim.weight}}
	l.docs[doc] = e
	return e
}

// Delivered records one speculative delivery: doc was shipped ahead of
// demand with the given byte size, engine probability (in thousandths),
// and governor rung name at decision time.
func (l *Ledger) Delivered(doc, class string, bytes, pMilli int64, rung string) {
	if l == nil {
		return
	}
	if bytes < 0 {
		bytes = 0
	}
	pMilli = ClampPMilli(pMilli)
	l.mu.Lock()
	l.total.delivered(bytes, pMilli)
	l.classTotals(class).delivered(bytes, pMilli)
	if rung != "" {
		l.rungs[rung]++
	}
	e := l.track(doc)
	e.stats.Deliveries++
	e.stats.DeliveredBytes += bytes
	e.stats.MeanPMilli += pMilli // holds the sum until Report divides
	e.weight += bytes
	l.mu.Unlock()
	if c, ok := l.deliveredC[class]; ok {
		c.Add(bytes)
	}
	l.deliveredB.Inc()
}

// TotalsSnapshot returns the ledger-wide totals. Nil-safe (zero totals),
// so callers can wire it as a feedback source without caring whether
// attribution is enabled. Snapshot validation in the estimation pipeline
// reads this to calibrate its regression bound against the consumed/
// wasted rates the last snapshot actually realized.
func (l *Ledger) TotalsSnapshot() Totals {
	if l == nil {
		return Totals{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Consumed resolves one outstanding delivery of doc as consumed: a
// demand request was served from the speculative copy.
func (l *Ledger) Consumed(doc, class string, bytes int64) {
	l.Resolved(doc, class, bytes, PUnknown, true)
}

// Wasted resolves one outstanding delivery of doc as wasted: the copy
// was evicted, replaced, or the session ended without it being used.
func (l *Ledger) Wasted(doc, class string, bytes int64) {
	l.Resolved(doc, class, bytes, PUnknown, false)
}

// Resolved resolves one outstanding delivery of doc, consumed or wasted,
// for a caller that knows the probability it was advertised at (in
// thousandths, as given to Delivered; PUnknown otherwise): the delivery
// also enters its class's calibration table.
func (l *Ledger) Resolved(doc, class string, bytes, pMilli int64, consumed bool) {
	if l == nil {
		return
	}
	if bytes < 0 {
		bytes = 0
	}
	l.mu.Lock()
	if pMilli >= 0 {
		cal, ok := l.calib[class]
		if !ok {
			cal = new(Calibration)
			l.calib[class] = cal
		}
		b := &cal[min(ClampPMilli(pMilli)/100, 9)]
		b.Deliveries++
		if consumed {
			b.Consumed++
		}
	}
	tot := []*Totals{&l.total, l.classTotals(class)}
	for _, t := range tot {
		if consumed {
			t.Consumed++
			t.ConsumedBytes += bytes
		} else {
			t.Wasted++
			t.WastedBytes += bytes
		}
	}
	// Admit the doc on resolution too (space-saving admits on every
	// update): with capacity covering all docs this makes every ledger
	// op commutative, so concurrent interleavings cannot change the
	// per-doc rows.
	e := l.track(doc)
	if consumed {
		e.stats.Consumed++
		e.stats.ConsumedBytes += bytes
	} else {
		e.stats.Wasted++
		e.stats.WastedBytes += bytes
	}
	l.mu.Unlock()
	if consumed {
		if c, ok := l.consumedC[class]; ok {
			c.Add(bytes)
		}
		l.consumedB.Inc()
	} else {
		if c, ok := l.wastedC[class]; ok {
			c.Add(bytes)
		}
		l.wastedB.Inc()
	}
}

// Report renders the ledger: exact totals plus the top-N per-doc rows by
// delivered bytes (ties by path). Deterministic for a fixed op multiset
// when no evictions occurred. Nil-safe: a nil ledger reports nil.
func (l *Ledger) Report(topN int) *Report {
	if l == nil {
		return nil
	}
	if topN < 0 {
		topN = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := &Report{
		Totals:      l.total,
		Outstanding: l.total.Deliveries - l.total.Consumed - l.total.Wasted,
		TrackedDocs: len(l.docs),
		EvictedDocs: l.evicted,
	}
	if len(l.classes) > 0 {
		r.Classes = make(map[string]Totals, len(l.classes))
		for k, v := range l.classes {
			r.Classes[k] = *v
		}
	}
	if len(l.rungs) > 0 {
		r.Rungs = make(map[string]int64, len(l.rungs))
		for k, v := range l.rungs {
			r.Rungs[k] = v
		}
	}
	r.Calibration = l.calibrationLocked()
	rows := make([]DocStat, 0, len(l.docs))
	for _, e := range l.docs {
		s := e.stats
		if s.Deliveries > 0 {
			s.MeanPMilli /= s.Deliveries // field held the sum
		}
		rows = append(rows, s)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].DeliveredBytes != rows[j].DeliveredBytes {
			return rows[i].DeliveredBytes > rows[j].DeliveredBytes
		}
		return rows[i].Doc < rows[j].Doc
	})
	if len(rows) > topN {
		rows = rows[:topN]
	}
	r.Docs = rows
	return r
}

// calibrationLocked copies the calibration tables out; nil when no
// resolution has named its probability yet. Callers hold mu.
func (l *Ledger) calibrationLocked() map[string]Calibration {
	if len(l.calib) == 0 {
		return nil
	}
	out := make(map[string]Calibration, len(l.calib))
	for k, v := range l.calib {
		out[k] = *v
	}
	return out
}

// DocExport is one document's raw attribution row in a ledger export:
// unlike DocStat it carries the delivery-probability *sum* (PMilliSum),
// not the rendered mean, so exports from disjoint shards merge exactly.
type DocExport struct {
	Doc            string `json:"doc"`
	Deliveries     int64  `json:"deliveries"`
	DeliveredBytes int64  `json:"delivered_bytes"`
	Consumed       int64  `json:"consumed"`
	ConsumedBytes  int64  `json:"consumed_bytes"`
	Wasted         int64  `json:"wasted"`
	WastedBytes    int64  `json:"wasted_bytes"`
	PMilliSum      int64  `json:"p_milli_sum"`
}

// Export is a ledger's raw state for distributed merging. Because every
// ledger update is a commutative integer add, summing the exports of
// shards whose operations partition the run reproduces the single-ledger
// state exactly; Report-rendering the merge then yields byte-identical
// output.
type Export struct {
	Totals  Totals            `json:"totals"`
	Classes map[string]Totals `json:"classes,omitempty"`
	Rungs   map[string]int64  `json:"rungs,omitempty"`
	// Calibration is integer counts per class and decile, so it sums
	// across shards like the totals.
	Calibration map[string]Calibration `json:"calibration,omitempty"`
	Docs        []DocExport            `json:"docs,omitempty"`
	// Evicted > 0 marks the per-doc rows approximate; such exports are
	// rejected by MergeExports (size shard ledgers to the site).
	Evicted int64 `json:"evicted,omitempty"`
}

// Export snapshots the ledger's raw state with doc rows sorted by path
// (deterministic wire bytes). Nil-safe: a nil ledger exports nil.
func (l *Ledger) Export() *Export {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := &Export{Totals: l.total, Evicted: l.evicted}
	if len(l.classes) > 0 {
		e.Classes = make(map[string]Totals, len(l.classes))
		for k, v := range l.classes {
			e.Classes[k] = *v
		}
	}
	if len(l.rungs) > 0 {
		e.Rungs = make(map[string]int64, len(l.rungs))
		for k, v := range l.rungs {
			e.Rungs[k] = v
		}
	}
	e.Calibration = l.calibrationLocked()
	for _, en := range l.docs {
		s := en.stats
		e.Docs = append(e.Docs, DocExport{
			Doc:            s.Doc,
			Deliveries:     s.Deliveries,
			DeliveredBytes: s.DeliveredBytes,
			Consumed:       s.Consumed,
			ConsumedBytes:  s.ConsumedBytes,
			Wasted:         s.Wasted,
			WastedBytes:    s.WastedBytes,
			PMilliSum:      s.MeanPMilli, // the field holds the sum pre-Report
		})
	}
	sort.Slice(e.Docs, func(i, j int) bool { return e.Docs[i].Doc < e.Docs[j].Doc })
	return e
}

// MergeExports sums shard exports and renders the combined Report with
// the same ranking and truncation rules as Ledger.Report. It rejects
// approximate (evicting) exports: the merge is only exact when every
// shard's ledger tracked all its documents.
func MergeExports(parts []*Export, topN int) (*Report, error) {
	if topN < 0 {
		topN = 0
	}
	var present []*Export
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Evicted > 0 {
			return nil, fmt.Errorf("attrib: cannot merge an evicting ledger export (%d evictions); size shard ledgers to the site", p.Evicted)
		}
		present = append(present, p)
	}
	if len(present) == 0 {
		return nil, nil
	}
	var total Totals
	classes := make(map[string]Totals)
	rungs := make(map[string]int64)
	calib := make(map[string]Calibration)
	docs := make(map[string]*DocExport)
	addTotals := func(dst *Totals, src Totals) {
		dst.Deliveries += src.Deliveries
		dst.DeliveredBytes += src.DeliveredBytes
		dst.Consumed += src.Consumed
		dst.ConsumedBytes += src.ConsumedBytes
		dst.Wasted += src.Wasted
		dst.WastedBytes += src.WastedBytes
		dst.PMilliSum += src.PMilliSum
	}
	for _, p := range present {
		addTotals(&total, p.Totals)
		for k, v := range p.Classes {
			t := classes[k]
			addTotals(&t, v)
			classes[k] = t
		}
		for k, v := range p.Rungs {
			rungs[k] += v
		}
		for k, v := range p.Calibration {
			c := calib[k]
			c.add(v)
			calib[k] = c
		}
		for i := range p.Docs {
			d := p.Docs[i]
			m, ok := docs[d.Doc]
			if !ok {
				cp := d
				docs[d.Doc] = &cp
				continue
			}
			m.Deliveries += d.Deliveries
			m.DeliveredBytes += d.DeliveredBytes
			m.Consumed += d.Consumed
			m.ConsumedBytes += d.ConsumedBytes
			m.Wasted += d.Wasted
			m.WastedBytes += d.WastedBytes
			m.PMilliSum += d.PMilliSum
		}
	}
	r := &Report{
		Totals:      total,
		Outstanding: total.Deliveries - total.Consumed - total.Wasted,
		TrackedDocs: len(docs),
	}
	if len(classes) > 0 {
		r.Classes = classes
	}
	if len(rungs) > 0 {
		r.Rungs = rungs
	}
	if len(calib) > 0 {
		r.Calibration = calib
	}
	rows := make([]DocStat, 0, len(docs))
	for _, d := range docs {
		s := DocStat{
			Doc:            d.Doc,
			Deliveries:     d.Deliveries,
			DeliveredBytes: d.DeliveredBytes,
			Consumed:       d.Consumed,
			ConsumedBytes:  d.ConsumedBytes,
			Wasted:         d.Wasted,
			WastedBytes:    d.WastedBytes,
			MeanPMilli:     d.PMilliSum,
		}
		if s.Deliveries > 0 {
			s.MeanPMilli /= s.Deliveries
		}
		rows = append(rows, s)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].DeliveredBytes != rows[j].DeliveredBytes {
			return rows[i].DeliveredBytes > rows[j].DeliveredBytes
		}
		return rows[i].Doc < rows[j].Doc
	})
	if len(rows) > topN {
		rows = rows[:topN]
	}
	r.Docs = rows
	return r, nil
}

// Handler serves the ledger as JSON — mount it at /debug/attrib. A
// ?top=N query bounds the per-doc rows (default 20).
func (l *Ledger) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		top := 20
		if s := req.URL.Query().Get("top"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 {
				top = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		rep := l.Report(top)
		if rep == nil {
			rep = &Report{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}
