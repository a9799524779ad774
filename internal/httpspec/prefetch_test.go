package httpspec

import (
	"context"
	"fmt"
	"math"
	"mime"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/checkpoint"
	"specweb/internal/core"
	"specweb/internal/estguard"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// handlerTransport calls a handler on the caller's goroutine: the whole
// protocol surface without sockets. served counts the requests it carried.
type handlerTransport struct {
	h      http.Handler
	served atomic.Int64
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.served.Add(1)
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// hintedWorld is a hints-mode (or mutated) world whose engine is warm
// started to hint succ, in order, behind page: every probability sits above
// the 0.3 the tests' clients follow, descending so the order is the row's.
func hintedWorld(t *testing.T, mode Mode, succs int, mutate func(*ServerConfig)) (w *testWorld, page *webgraph.Document, succ []*webgraph.Document) {
	t.Helper()
	w = newWorldCfg(t, mode, func(cfg *ServerConfig) {
		cfg.Metrics = obs.NewRegistry()
		if mutate != nil {
			mutate(cfg)
		}
	})
	page = pageWithEmbedded(t, w.site)
	for i := range w.site.Docs {
		if d := &w.site.Docs[i]; d.ID != page.ID && len(succ) < succs {
			succ = append(succ, d)
		}
	}
	if len(succ) < succs {
		t.Fatalf("site has %d documents, need %d successors", len(w.site.Docs), succs)
	}
	snap := hintSnapshot(page, succ)
	if w.server.cfg.Engine.Guard != nil {
		snap.Clients = []estguard.ClientSummary{{ID: "crawler", Status: estguard.Quarantined, Reason: estguard.ReasonCrawler, Windows: 1}}
	}
	if err := w.server.Engine().WarmStart(snap, w.clock()); err != nil {
		t.Fatal(err)
	}
	return w, page, succ
}

// unhinted is a document the warm-started estimate says nothing about:
// neither page nor one of succ, so fetching it brings no hints.
func unhinted(t *testing.T, site *webgraph.Site, page *webgraph.Document, succ []*webgraph.Document) *webgraph.Document {
	t.Helper()
	for i := len(site.Docs) - 1; i >= 0; i-- {
		d := &site.Docs[i]
		if d.ID != page.ID && !slices.Contains(succ, d) {
			return d
		}
	}
	t.Fatal("every document is hinted")
	return nil
}

// hintSnapshot is an estimate in which succ follow page, the i-th (from 0)
// with probability 0.89 − i/100: above any threshold the tests follow, below
// the embedding bar, in row order.
func hintSnapshot(page *webgraph.Document, succ []*webgraph.Document) *checkpoint.Snapshot {
	row := checkpoint.Row{Doc: int32(page.ID)}
	for i, d := range succ {
		p := 0.9 - 0.01*float64(i+1)
		row.Succ = append(row.Succ, checkpoint.Succ{Doc: int32(d.ID), PBits: math.Float64bits(p)})
	}
	return &checkpoint.Snapshot{Knobs: checkpoint.Knobs{Tp: 0.3, Embed: 0.95}, Rows: []checkpoint.Row{row}}
}

// prefetchPerDocument is the prefetch loop batching replaced, kept as the
// reference: one request per hint, each its own round trip. It reports
// whether it sent one. What it caches is a prefetch-class entry like the
// batched client's, so the client reports its fate in the same token.
func prefetchPerDocument(c *Client, h clientHint) bool {
	path := h.path
	c.mu.Lock()
	if _, ok := c.cache[path]; ok {
		c.mu.Unlock()
		return false
	}
	digest := c.digestLocked()
	c.mu.Unlock()

	sp := c.tracer.Start("client.prefetch")
	sp.SetAttr("path", path)
	defer sp.Finish()

	cctx, cancel := resilience.EnsureDeadline(context.Background(), c.cfg.Timeout)
	defer cancel()
	req, err := c.newRequest(cctx, path)
	if err != nil {
		return false
	}
	if tp := sp.Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	if c.cfg.ID != "" {
		req.Header.Set(HeaderClient, c.cfg.ID)
	}
	if c.cfg.Cooperative && digest != "" {
		req.Header.Set(HeaderHave, digest)
	}
	req.Header.Set(HeaderPrefetch, strconv.FormatInt(attrib.PMilli(h.p), 10))
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return true
	}
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return true
	}
	c.mu.Lock()
	if _, ok := c.cache[path]; !ok {
		c.cfg.Attrib.Delivered(path, attrib.ClassPrefetch, int64(len(body)),
			attrib.PMilli(h.p), validRung(resp.Header.Get(HeaderRung)))
		c.cache[path] = cacheEntry{body: body, spec: true, class: attrib.ClassPrefetch, pMilli: int16(attrib.PMilli(h.p))}
		c.stats.Prefetched++
		c.stats.BytesIn += int64(len(body))
	}
	c.mu.Unlock()
	return true
}

// linkTap remembers the Link headers of the last demand response, which is
// how the reference arm gets at the hints its client was told not to follow.
type linkTap struct {
	next  http.RoundTripper
	links []string
}

func (l *linkTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.next.RoundTrip(req)
	if err == nil && req.Header.Get(HeaderPrefetch) == "" {
		l.links = resp.Header.Values("Link")
	}
	return resp, err
}

// bareAccept is a hop that knows Spec-Accept as the bare token it used to be
// and forwards it as such.
type bareAccept struct{ next http.RoundTripper }

func (b bareAccept) RoundTrip(req *http.Request) (*http.Response, error) {
	if token, _, params := strings.Cut(req.Header.Get(HeaderAccept), ";"); params {
		req = req.Clone(req.Context())
		req.Header.Set(HeaderAccept, token)
	}
	return b.next.RoundTrip(req)
}

// recordingStore logs every size the engine or the server asks for, with
// the client being served and the clock: the engine asks for each access it
// logs (Record, or Settle of a used offer) and the server for each token it
// resolves, so the log holds each (client, doc, at) that reached them, in
// order.
type recordingStore struct {
	*SiteStore
	w      *testWorld
	client *string
	log    *[]string
}

func (s recordingStore) Size(id webgraph.DocID) (int64, bool) {
	*s.log = append(*s.log, fmt.Sprintf("%s %d %d", *s.client, id, s.w.clock().UnixNano()))
	return s.SiteStore.Size(id)
}

// prefetchArm is everything TestBatchedPrefetchMatchesPerDocument compares
// between its two arms.
type prefetchArm struct {
	clients        ClientStats
	trips          int64 // prefetch requests sent
	clientLedger   attrib.Totals
	serverLedger   attrib.Totals
	clientPrefetch attrib.Totals
	serverPrefetch attrib.Totals
	clientCalib    map[string]attrib.Calibration
	serverCalib    map[string]attrib.Calibration
	server         ServerStats
	engine         core.Stats
	sizeLog        []string
}

// runPrefetchArm replays tr, hybrid and prefetching at 0.3, against a fresh
// server that learns as it serves (the trace crosses refresh boundaries, so
// some reports arrive a cycle after their offer and some offers expire),
// sessions purged at 30-minute gaps.
// perDocument swaps the client's own hint following for the reference loop;
// legacyHop puts a hop that drops the Spec-Accept parameter between client
// and server, so hinted documents travel by Spec-Want as they did before a
// client could state its threshold.
func runPrefetchArm(t *testing.T, site *webgraph.Site, tr *trace.Trace, perDocument, legacyHop bool) prefetchArm {
	t.Helper()
	const threshold = 0.3
	var arm prefetchArm
	current := ""
	w := &testWorld{site: site, now: tr.Requests[0].Time}
	store := recordingStore{SiteStore: NewSiteStore(site), w: w, client: &current, log: &arm.sizeLog}
	srvLed := attrib.NewLedger(64, obs.NewRegistry())
	cliLed := attrib.NewLedger(64, obs.NewRegistry())
	cfg := DefaultServerConfig()
	cfg.Engine.MinOccurrences = 2
	cfg.Engine.Tp = threshold
	cfg.Engine.EmbedThreshold = 0.8
	cfg.Clock = w.clock
	cfg.Metrics = obs.NewRegistry()
	cfg.Attrib = srvLed
	srv, err := NewServer(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tap := &linkTap{next: &handlerTransport{h: srv}}
	hc := &http.Client{Transport: tap}
	if legacyHop {
		hc.Transport = bareAccept{tap}
	}

	clients := map[trace.ClientID]*Client{}
	last := map[trace.ClientID]time.Time{}
	for _, r := range tr.Requests {
		w.mu.Lock()
		w.now = r.Time
		w.mu.Unlock()
		current = string(r.Client)
		c := clients[r.Client]
		if c == nil {
			ccfg := ClientConfig{ID: current, AcceptBundles: true, HTTP: hc, Attrib: cliLed}
			if !perDocument {
				ccfg.PrefetchThreshold = threshold
			}
			c = NewClient("http://origin", ccfg)
			clients[r.Client] = c
		}
		if r.Time.Sub(last[r.Client]) > 30*time.Minute {
			c.EndSession()
		}
		last[r.Client] = r.Time
		tap.links = nil
		if _, _, err := c.Get(site.Doc(r.Doc).Path); err != nil {
			t.Fatal(err)
		}
		if !perDocument {
			continue
		}
		for _, l := range tap.links {
			if h, ok := parseLinkHint(l); ok && h.p >= threshold && prefetchPerDocument(c, h) {
				arm.trips++
			}
		}
	}
	for _, c := range clients {
		c.ResolveOutstanding()
		arm.clients = arm.clients.Add(c.Stats())
	}
	if !perDocument {
		arm.trips = arm.clients.PrefetchRoundTrips
		arm.clients.PrefetchRoundTrips = 0
	}
	cr, sr := cliLed.Report(0), srvLed.Report(0)
	arm.clientLedger, arm.clientPrefetch = cr.Totals, cr.Classes[attrib.ClassPrefetch]
	arm.serverLedger, arm.serverPrefetch = sr.Totals, sr.Classes[attrib.ClassPrefetch]
	arm.clientCalib, arm.serverCalib = cr.Calibration, sr.Calibration
	arm.server = srv.Stats()
	arm.engine = srv.Engine().Stats()
	return arm
}

// TestBatchedPrefetchMatchesPerDocument is the contract of the two ways a
// hinted document travels. Behind a hop that drops the Spec-Accept parameter
// it is asked for: batching changes how many requests carry the prefetched
// documents and nothing else. One department-profile trace goes through the
// client's batched hint following and through the per-document loop it
// replaced, each against a fresh learning server: every client counter, both
// ledgers and the sequence of accesses the engine recorded are the same, and
// the server handled fewer requests by exactly the round trips saved. Either
// way a prefetched document is an offer to the engine and an access only
// once its client has reported it consumed. With the parameter the same
// documents arrive behind the demand answers (inlinePrefetchMatches).
func TestBatchedPrefetchMatchesPerDocument(t *testing.T) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	scfg := synth.DefaultConfig(site, nil)
	scfg.Days = 3
	scfg.SessionsPerDay = 40
	scfg.RemoteClients = 30
	scfg.LocalClients = 8
	res, err := synth.Generate(scfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	ref := runPrefetchArm(t, site, res.Trace, true, true)
	got := runPrefetchArm(t, site, res.Trace, false, true)
	inlinePrefetchMatches(t, runPrefetchArm(t, site, res.Trace, false, false), got)

	t.Logf("per document: %+v, %d round trips, engine %+v; batched: %d round trips", ref.clients, ref.trips, ref.engine, got.trips)
	if ref.clients.Prefetched == 0 || ref.clients.Pushed == 0 || ref.clients.SpecHits == 0 {
		t.Fatalf("trace exercises too little: %+v", ref.clients)
	}
	if got.clients != ref.clients {
		t.Errorf("client counters differ:\nbatched      %+v\nper document %+v", got.clients, ref.clients)
	}
	if ref.trips != ref.clients.Prefetched {
		t.Errorf("reference sent %d prefetch requests for %d documents", ref.trips, ref.clients.Prefetched)
	}
	if got.trips >= ref.trips {
		t.Errorf("batching saved nothing: %d round trips against %d", got.trips, ref.trips)
	}
	if saved, fewer := ref.trips-got.trips, ref.server.Requests-got.server.Requests; saved != fewer {
		t.Errorf("server handled %d fewer requests, %d round trips were saved", fewer, saved)
	}
	demand := ref.server.Requests - ref.trips
	got.server.Requests, ref.server.Requests = 0, 0
	got.server.BundlesBuilt, ref.server.BundlesBuilt = 0, 0 // a batch's answer is a bundle
	if got.server != ref.server {
		t.Errorf("server counters differ:\nbatched      %+v\nper document %+v", got.server, ref.server)
	}
	for _, c := range []struct {
		name      string
		got, want attrib.Totals
	}{
		{"client ledger", got.clientLedger, ref.clientLedger},
		{"client ledger, prefetch class", got.clientPrefetch, ref.clientPrefetch},
		{"server ledger", got.serverLedger, ref.serverLedger},
		{"server ledger, prefetch class", got.serverPrefetch, ref.serverPrefetch},
	} {
		if c.got != c.want {
			t.Errorf("%s differs:\nbatched      %+v\nper document %+v", c.name, c.got, c.want)
		}
	}
	if got.serverPrefetch.Deliveries != ref.clients.Prefetched {
		t.Errorf("server ledger has %d prefetch deliveries, clients prefetched %d", got.serverPrefetch.Deliveries, ref.clients.Prefetched)
	}
	if !reflect.DeepEqual(got.clientCalib, ref.clientCalib) || !reflect.DeepEqual(got.serverCalib, ref.serverCalib) {
		t.Errorf("calibration tables differ:\nbatched      %+v %+v\nper document %+v %+v", got.clientCalib, got.serverCalib, ref.clientCalib, ref.serverCalib)
	}
	if !reflect.DeepEqual(got.engine, ref.engine) {
		t.Errorf("engine stats differ:\nbatched      %+v\nper document %+v", got.engine, ref.engine)
	}
	// One record per demand request the server handled and one per prefetch
	// reported consumed while its offer stood; one offer per prefetched
	// document, each by now used, forgotten, expired or still waiting for
	// the report the run's last sessions never got to send.
	learned := ref.engine.Recorded - demand
	if learned <= 0 || learned > ref.serverPrefetch.Consumed || ref.engine.Recorded >= demand+ref.clients.Prefetched {
		t.Errorf("engine recorded %d accesses over %d demand requests: %d prefetched, %d reported consumed",
			ref.engine.Recorded, demand, ref.clients.Prefetched, ref.serverPrefetch.Consumed)
	}
	if ref.engine.OffersOutstanding <= 0 || ref.engine.OffersOutstanding+ref.engine.OffersExpired+ref.serverPrefetch.Consumed+ref.serverPrefetch.Wasted < ref.clients.Prefetched {
		t.Errorf("offers unaccounted for: %+v against %d prefetched, server ledger %+v", ref.engine, ref.clients.Prefetched, ref.serverPrefetch)
	}
	if !reflect.DeepEqual(got.sizeLog, ref.sizeLog) {
		for i := range got.sizeLog {
			if i >= len(ref.sizeLog) || got.sizeLog[i] != ref.sizeLog[i] {
				t.Fatalf("recorded accesses diverge at %d of %d/%d: batched %q", i, len(got.sizeLog), len(ref.sizeLog), got.sizeLog[i])
			}
		}
		t.Fatalf("recorded accesses: batched log is a prefix (%d of %d)", len(got.sizeLog), len(ref.sizeLog))
	}
}

// inlinePrefetchMatches holds the arm whose clients stated their threshold
// against the batched one: no prefetch request was sent, and the documents
// arrived all the same — every client counter but the bytes is equal, hits
// and consumed deliveries included, and the engine learned from as many
// accesses. What differs is what the server cannot know: it sent some
// documents to clients that held them, and each of those deliveries is
// accounted for, in bytes and in both ledgers, as wasted. (The calibration
// tables differ by those, and by the few deliveries whose offer a duplicate
// re-stamped: an access learned at the later of two delivery times moves an
// estimate by a pair.)
func inlinePrefetchMatches(t *testing.T, inl, batched prefetchArm) {
	t.Helper()
	t.Logf("inline: %+v, %d round trips, engine %+v", inl.clients, inl.trips, inl.engine)
	if inl.trips != 0 {
		t.Errorf("clients that stated their threshold still sent %d prefetch requests", inl.trips)
	}
	if want := batched.server.Requests - batched.trips; inl.server.Requests != want {
		t.Errorf("server handled %d requests, want the %d demand ones", inl.server.Requests, want)
	}
	if inl.server.HintsSent >= batched.server.HintsSent {
		t.Errorf("server still sent %d hints, %d when it had to name every document", inl.server.HintsSent, batched.server.HintsSent)
	}
	dup := inl.clientPrefetch.Deliveries - batched.clientPrefetch.Deliveries
	dupBytes := inl.clients.BytesIn - batched.clients.BytesIn
	if dup <= 0 || dupBytes <= 0 {
		t.Fatalf("trace exercises no duplicate delivery: %d more deliveries, %d more bytes", dup, dupBytes)
	}
	inl.clients.BytesIn = batched.clients.BytesIn
	if inl.clients != batched.clients {
		t.Errorf("client counters differ:\ninline  %+v\nbatched %+v", inl.clients, batched.clients)
	}
	for _, side := range []struct {
		name      string
		got, want attrib.Totals
	}{
		{"client", inl.clientPrefetch, batched.clientPrefetch},
		{"server", inl.serverPrefetch, batched.serverPrefetch},
	} {
		got, want := side.got, side.want
		if got.Consumed != want.Consumed || got.ConsumedBytes != want.ConsumedBytes {
			t.Errorf("%s ledger: %d prefetches consumed (%d bytes), batched %d (%d)", side.name, got.Consumed, got.ConsumedBytes, want.Consumed, want.ConsumedBytes)
		}
		if got.Deliveries != want.Deliveries+dup || got.DeliveredBytes != want.DeliveredBytes+dupBytes {
			t.Errorf("%s ledger: %d prefetch deliveries of %d bytes, want batched's %d of %d and the %d duplicates of %d",
				side.name, got.Deliveries, got.DeliveredBytes, want.Deliveries, want.DeliveredBytes, dup, dupBytes)
		}
	}
	// Every client resolved all it held, so there every duplicate shows as
	// wasted; the server hears of those reported before the run's last fetch.
	if got, want := inl.clientPrefetch, batched.clientPrefetch; got.Wasted != want.Wasted+dup || got.WastedBytes != want.WastedBytes+dupBytes {
		t.Errorf("client ledger: %d prefetches wasted (%d bytes), want batched's %d (%d) and the duplicates", got.Wasted, got.WastedBytes, want.Wasted, want.WastedBytes)
	}
	if got, want := inl.serverPrefetch.Wasted, batched.serverPrefetch.Wasted; got <= want || got > want+dup {
		t.Errorf("server ledger: %d prefetches wasted, batched %d, %d duplicates", got, want, dup)
	}
	if inl.engine.Recorded != batched.engine.Recorded || inl.engine.OffersExpired != batched.engine.OffersExpired {
		t.Errorf("engine learned from %d accesses (%d offers expired), batched from %d (%d)",
			inl.engine.Recorded, inl.engine.OffersExpired, batched.engine.Recorded, batched.engine.OffersExpired)
	}
	for _, side := range []struct {
		name      string
		got, want map[string]attrib.Calibration
	}{{"client", inl.clientCalib, batched.clientCalib}, {"server", inl.serverCalib, batched.serverCalib}} {
		var got, want attrib.CalBucket
		for i := range side.got[attrib.ClassPrefetch] {
			got.Deliveries += side.got[attrib.ClassPrefetch][i].Deliveries
			got.Consumed += side.got[attrib.ClassPrefetch][i].Consumed
			want.Deliveries += side.want[attrib.ClassPrefetch][i].Deliveries
			want.Consumed += side.want[attrib.ClassPrefetch][i].Consumed
		}
		if got.Consumed != want.Consumed || got.Deliveries < want.Deliveries || got.Deliveries > want.Deliveries+dup {
			t.Errorf("%s calibration, prefetch class: %+v resolved, batched %+v and %d duplicates", side.name, got, want, dup)
		}
		if !reflect.DeepEqual(side.got[attrib.ClassPush], side.want[attrib.ClassPush]) {
			t.Errorf("%s calibration, push class: %v, batched %v", side.name, side.got[attrib.ClassPush], side.want[attrib.ClassPush])
		}
	}
}

// TestPrefetchAnswerCarriesNoHints: the client follows no hints from a
// prefetch's answer, so the server computes and sends none — on the head
// alone or on a batch.
func TestPrefetchAnswerCarriesNoHints(t *testing.T) {
	w, page, succ := hintedWorld(t, ModeHints, 3, nil)
	hints := w.server.Stats().HintsSent
	for _, want := range []string{"", succ[0].Path + ";500"} {
		req, _ := http.NewRequest(http.MethodGet, w.ts.URL+page.Path, nil)
		req.Header.Set(HeaderPrefetch, "500")
		if want != "" {
			req.Header.Set(HeaderWant, want)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if l := resp.Header.Values("Link"); len(l) != 0 {
			t.Errorf("Spec-Want %q: prefetch answer carries hints %q", want, l)
		}
		// A batch of one is the plain request and answer it always was.
		if bundle := strings.HasPrefix(resp.Header.Get("Content-Type"), "multipart/"); bundle != (want != "") {
			t.Errorf("Spec-Want %q: answer is %s", want, resp.Header.Get("Content-Type"))
		}
	}
	if got := w.server.Stats().HintsSent; got != hints {
		t.Errorf("hints counted for prefetch answers: %d", got-hints)
	}
	req, _ := http.NewRequest(http.MethodGet, w.ts.URL+page.Path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if l := resp.Header.Values("Link"); len(l) != 3 {
		t.Errorf("demand answer carries %d hints, want 3", len(l))
	}
}

// TestLongHintListArrivesWhole: more hints than one request asks for, or
// than one answer carries, take further requests — headed by the next path
// each time — and never lose a document. Each is an offer to the engine,
// however many requests brought them, and an access once reported consumed.
func TestLongHintListArrivesWhole(t *testing.T) {
	const hinted = 20
	for _, tc := range []struct {
		name    string
		maxPush int
		trips   int64
	}{
		{"client's 16 a request", 16, 2}, // 16 + 4
		{"server's cap of 4", 4, 4},      // (1+4) × 4
		{"server's cap of 1", 1, 10},     // (1+1) × 10
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, page, succ := hintedWorld(t, ModeHints, hinted, func(cfg *ServerConfig) { cfg.MaxPush = tc.maxPush })
			led := attrib.NewLedger(64, obs.NewRegistry())
			c := NewClient(w.ts.URL, ClientConfig{ID: "long", PrefetchThreshold: 0.3, Attrib: led})
			if _, _, err := c.Get(page.Path); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Prefetched != hinted || st.PrefetchRoundTrips != tc.trips {
				t.Errorf("prefetched %d documents in %d round trips, want %d in %d", st.Prefetched, st.PrefetchRoundTrips, hinted, tc.trips)
			}
			if got := w.server.Stats().Requests; got != 1+tc.trips {
				t.Errorf("server handled %d requests, want %d", got, 1+tc.trips)
			}
			var pSum int64
			for i, d := range succ {
				if !c.Cached(d.Path) {
					t.Errorf("hint %d (%s) did not arrive", i, d.Path)
				}
				pSum += attrib.PMilli(0.9 - 0.01*float64(i+1))
			}
			if got := led.Report(0).Totals; got.Deliveries != hinted || got.PMilliSum != pSum {
				t.Errorf("ledger has %d deliveries, p sum %d; want %d, %d", got.Deliveries, got.PMilliSum, hinted, pSum)
			}
			if got := w.server.Engine().Stats(); got.Recorded != 1 || got.OffersOutstanding != hinted {
				t.Errorf("engine recorded %d accesses and holds %d offers, want 1 and %d", got.Recorded, got.OffersOutstanding, hinted)
			}
			// The user opens three of them; the reports ride on the next
			// fetch that reaches the server.
			const used = 3
			for _, d := range succ[:used] {
				if _, hit, err := c.Get(d.Path); err != nil || !hit {
					t.Fatalf("%s: hit %v, err %v", d.Path, hit, err)
				}
			}
			c.ResolveOutstanding()
			if _, _, err := c.Get(unhinted(t, w.site, page, succ).Path); err != nil {
				t.Fatal(err)
			}
			if got := w.server.Engine().Stats(); got.Recorded != 1+used+1 || got.OffersOutstanding != 0 || got.OffersExpired != 0 {
				t.Errorf("engine recorded %d accesses and holds %d offers (%d expired), want %d and none", got.Recorded, got.OffersOutstanding, got.OffersExpired, 1+used+1)
			}
		})
	}
}

// flakyOrigin fails the proxy's next forwards while armed.
type flakyOrigin struct {
	next http.RoundTripper
	fail atomic.Int64
}

func (f *flakyOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.fail.Add(-1) >= 0 {
		return nil, fmt.Errorf("origin unreachable")
	}
	return f.next.RoundTrip(req)
}

// TestBatchThroughProxyIsReasked: a proxy that answers the head of a batch
// itself — from a replica, or from its stale store with the origin down —
// sends the head alone; the client asks for the remainder again, batched,
// and every hinted document still arrives.
func TestBatchThroughProxyIsReasked(t *testing.T) {
	for _, mode := range []string{"replica", "stale"} {
		t.Run(mode, func(t *testing.T) {
			w, page, succ := hintedWorld(t, ModeHints, 3, nil)
			origin := &flakyOrigin{next: http.DefaultTransport}
			proxy := NewProxyWith(w.ts.URL, ProxyConfig{
				HTTP:    &http.Client{Transport: origin},
				Retry:   fastRetry(1),
				Metrics: obs.NewRegistry(),
			})
			head, _ := w.store.Content(succ[0].ID)
			proxy.mu.Lock()
			if mode == "replica" {
				proxy.replicas[succ[0].Path] = &replica{body: head}
			} else {
				proxy.stale[succ[0].Path] = head
			}
			proxy.mu.Unlock()
			var wants []string
			ps := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.Header.Get(HeaderPrefetch) != "" {
					wants = append(wants, r.URL.Path+" | "+r.Header.Get(HeaderWant))
					if mode == "stale" && len(wants) == 1 {
						origin.fail.Store(1)
					}
				}
				proxy.ServeHTTP(rw, r)
			}))
			defer ps.Close()

			c := NewClient(ps.URL, ClientConfig{ID: "via-proxy", PrefetchThreshold: 0.3})
			if _, _, err := c.Get(page.Path); err != nil {
				t.Fatal(err)
			}
			for _, d := range succ {
				if !c.Cached(d.Path) {
					t.Errorf("%s did not arrive", d.Path)
				}
			}
			st := c.Stats()
			if st.Prefetched != 3 || st.PrefetchRoundTrips != 2 {
				t.Errorf("prefetched %d documents in %d round trips, want 3 in 2", st.Prefetched, st.PrefetchRoundTrips)
			}
			if mode == "stale" && st.StaleServes != 0 {
				// Prefetches never counted stale serves; demand fetches do.
				t.Errorf("stale serves = %d", st.StaleServes)
			}
			want := []string{
				fmt.Sprintf("%s | %s;%d %s;%d", succ[0].Path, succ[1].Path, 880, succ[2].Path, 870),
				fmt.Sprintf("%s | %s;%d", succ[1].Path, succ[2].Path, 870),
			}
			if !reflect.DeepEqual(wants, want) {
				t.Errorf("prefetch requests:\n got %q\nwant %q", wants, want)
			}
			// The origin saw the demand fetch and the one re-asked batch.
			if got := w.server.Stats().Requests; got != 2 {
				t.Errorf("origin handled %d requests, want 2", got)
			}
		})
	}
}

// TestUnaskedBundlePartIsNotCached: the client classifies a prefetch
// answer's parts by what it asked for; one it did not ask for — marked
// pushed or not — is dropped, uncounted.
func TestUnaskedBundlePartIsNotCached(t *testing.T) {
	body := []byte("wanted body")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderPrefetch) == "" {
			w.Header().Add("Link", `</a>; rel="prefetch"; spec-p=0.9`)
			w.Header().Add("Link", `</b>; rel="prefetch"; spec-p=0.8`)
			_, _ = w.Write([]byte("page"))
			return
		}
		var raw []byte
		for i, p := range []string{"/a", "/evil", "/b", "/evil-pushed", "/a"} {
			var mark bundleDoc
			if p == "/evil-pushed" {
				mark = bundleDoc{class: attrib.ClassPush, pMilli: 999}
			}
			raw = appendPartHeader(raw, i == 0, p, len(body), mark)
			raw = append(raw, body...)
		}
		raw = appendBundleClose(raw, false)
		w.Header().Set("Content-Type", bundleContentType)
		_, _ = w.Write(raw)
	}))
	defer ts.Close()
	led := attrib.NewLedger(64, obs.NewRegistry())
	c := NewClient(ts.URL, ClientConfig{ID: "u", PrefetchThreshold: 0.3, Attrib: led})
	if _, _, err := c.Get("/page"); err != nil {
		t.Fatal(err)
	}
	if !c.Cached("/a") || !c.Cached("/b") {
		t.Error("asked-for parts not cached")
	}
	if c.Cached("/evil") || c.Cached("/evil-pushed") {
		t.Error("a part the client did not ask for was cached")
	}
	st := c.Stats()
	if st.Prefetched != 2 || st.Pushed != 0 || st.PrefetchRoundTrips != 1 || st.BytesIn != int64(len("page")+2*len(body)) {
		t.Errorf("stats %+v", st)
	}
	if got := led.Report(0).Totals; got.Deliveries != 2 || got.PMilliSum != 900+800 {
		t.Errorf("ledger %+v: want the two asked-for deliveries at the hints' own probabilities", got)
	}
}

// wantAnswer sends one prefetch for page with the given Spec-Want and
// returns the paths of the answer's parts (the head alone for a plain body).
func wantAnswer(t *testing.T, w *testWorld, client, page, want string) []string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, w.ts.URL+page, nil)
	req.Header.Set(HeaderClient, client)
	req.Header.Set(HeaderPrefetch, "500")
	req.Header.Set(HeaderWant, want)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Spec-Want %q: %s", want, resp.Status)
	}
	mt, params, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if mt != "multipart/mixed" {
		return []string{page}
	}
	bw, err := openBundle(resp, params["boundary"])
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for {
		part, ok, err := bw.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return paths
		}
		if len(part.pushed) != 0 || len(part.specP) != 0 {
			t.Errorf("Spec-Want %q: part %s is marked pushed", want, part.loc)
		}
		paths = append(paths, string(part.loc))
	}
}

// TestSpecWantHardening: Spec-Want crosses the wire like the other headers
// parse.go guards. Whatever it holds, the answer carries the head, then only
// known documents the list named, each once, at most MaxPush of them, and
// only clamped probabilities reach the ledger; a quarantined client gets the
// head alone. Every part sent is one offer to the engine (each case asks as
// a client of its own: a repeated offer would replace, not add) and none is
// an access.
func TestSpecWantHardening(t *testing.T) {
	led := attrib.NewLedger(64, obs.NewRegistry())
	w, page, succ := hintedWorld(t, ModeHints, 8, func(cfg *ServerConfig) {
		cfg.MaxPush = 4
		cfg.Attrib = led
		cfg.Engine.Guard = estguard.New(estguard.Config{Seed: 1, MinRequests: 1 << 20, DriftThreshold: 100})
	})
	a, b, c := succ[0].Path, succ[1].Path, succ[2].Path
	var all []string
	for _, d := range succ {
		all = append(all, d.Path+";500")
	}
	for _, tc := range []struct {
		name, client, want string
		parts              []string
		pSum               int64 // of the parts behind the head
	}{
		{"well formed", "h", a + ";700 " + b + ";300", []string{page.Path, a, b}, 1000},
		{"unknown paths", "h", "/nowhere;500 " + a + ";500 /../etc/passwd;1", []string{page.Path, a}, 500},
		{"duplicates", "h", a + ";500 " + a + ";900 " + b + ";100", []string{page.Path, a, b}, 600},
		{"head repeated", "h", page.Path + ";500 " + a + ";500", []string{page.Path, a}, 500},
		{"more than the cap", "h", strings.Join(all, " "), []string{page.Path, a, b, c, succ[3].Path}, 2000},
		{"garbage p", "h", a + ";abc " + b + "; " + c, []string{page.Path, a, b, c}, 0},
		{"oversized p", "h", a + ";99999999999 " + b + ";-5 " + c + ";123456789012345678901234567890", []string{page.Path, a, b, c}, 1000},
		{"semicolons and spaces", "h", ";;  ; " + a + ";1;2 " + b + ";7", []string{page.Path, b}, 7},
		{"nothing usable", "h", "/nowhere;1  \t ;", []string{page.Path}, 0},
		{"more items than the server reads", "h", strings.Repeat("/nowhere;1 ", maxWantItems) + a + ";500", []string{page.Path}, 0},
		{"quarantined", "crawler", a + ";700 " + b + ";300", []string{page.Path}, 0},
	} {
		if tc.client == "h" {
			tc.client = "h-" + tc.name
		}
		before, engine := led.Report(0).Totals, w.server.Engine().Stats()
		parts := wantAnswer(t, w, tc.client, page.Path, tc.want)
		if !reflect.DeepEqual(parts, tc.parts) {
			t.Errorf("%s: answer carries %q, want %q", tc.name, parts, tc.parts)
		}
		after := led.Report(0).Totals
		if got := after.Deliveries - before.Deliveries; got != int64(len(tc.parts)) {
			t.Errorf("%s: %d deliveries in the server's ledger, want %d", tc.name, got, len(tc.parts))
		}
		if got := after.PMilliSum - before.PMilliSum - 500; got != tc.pSum {
			t.Errorf("%s: ledger p sum moved by %d behind the head, want %d", tc.name, got, tc.pSum)
		}
		if got := w.server.Engine().Stats(); got.Recorded != engine.Recorded || got.OffersOutstanding-engine.OffersOutstanding != int64(len(tc.parts)) {
			t.Errorf("%s: engine recorded %d accesses and took %d offers, want 0 and %d", tc.name,
				got.Recorded-engine.Recorded, got.OffersOutstanding-engine.OffersOutstanding, len(tc.parts))
		}
	}
}

// FuzzParseWant: no header makes the server panic, send more than its cap,
// send a document twice, or send one the header did not name.
func FuzzParseWant(f *testing.F) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		f.Fatal(err)
	}
	store := NewSiteStore(site)
	a, b := site.Docs[1].Path, site.Docs[2].Path
	for _, s := range []string{
		"", " ", ";", a, a + ";500", a + ";500 " + b + ";250", a + ";500 " + a + ";500",
		site.Docs[0].Path + ";1", a + ";-1", a + ";99999999999999999999999", a + ";;;", "  " + a + ";1\t" + b,
		strings.Repeat(a+";1 ", 100), "/nowhere;5 " + b + ";5", a + "\x00;1", "é;1 " + a,
	} {
		f.Add(s, 4)
	}
	f.Fuzz(func(t *testing.T, list string, limit int) {
		if limit < 0 || limit > 64 {
			limit = 16
		}
		head := bundleDoc{doc: site.Docs[0].ID}
		docs := parseWant([]bundleDoc{head}, list, store, limit)
		if len(docs) < 1 || docs[0] != head {
			t.Fatalf("head lost: %+v", docs)
		}
		if len(docs)-1 > limit {
			t.Fatalf("%d documents behind the head, cap %d", len(docs)-1, limit)
		}
		items := strings.Split(list, " ")
		seen := map[webgraph.DocID]bool{head.doc: true}
		for _, d := range docs[1:] {
			if seen[d.doc] {
				t.Fatalf("document %d twice in %+v", d.doc, docs)
			}
			seen[d.doc] = true
			if d.class != attrib.ClassPrefetch || d.pMilli < 0 || d.pMilli > 1000 {
				t.Fatalf("part %+v", d)
			}
			path, ok := store.Path(d.doc)
			if !ok {
				t.Fatalf("document %d is not the store's", d.doc)
			}
			named := false
			for _, it := range items {
				named = named || it == path || strings.HasPrefix(it, path+";")
			}
			if !named {
				t.Fatalf("header %q did not name %s", list, path)
			}
		}
	})
}

// TestWantListRoundTrip: what appendWant renders, nextWant reads back; a
// path the list cannot carry is not wantable.
func TestWantListRoundTrip(t *testing.T) {
	var list []byte
	in := []clientHint{{"/a/b.html", 0.9}, {"/x;y", 0.25}, {"/ü", 1}}
	for _, h := range in {
		if !wantable(h.path) {
			t.Fatalf("%q not wantable", h.path)
		}
		list = appendWant(list, h.path, attrib.PMilli(h.p))
	}
	rest := string(list)
	for _, h := range in {
		var path string
		var p int64
		path, p, rest = nextWant(rest)
		if path != h.path || p != attrib.PMilli(h.p) {
			t.Errorf("read back %q;%d, want %q;%d", path, p, h.path, attrib.PMilli(h.p))
		}
	}
	if rest != "" {
		t.Errorf("left over %q", rest)
	}
	for _, p := range []string{"", "relative", "/a b", "/a\tb", "/a\r\nX: y", "/a\x7f"} {
		if wantable(p) {
			t.Errorf("%q wantable", p)
		}
	}
}

// TestUnwantablePathHeadsItsOwnRequest: a hinted path the list cannot name
// is not dropped: the batch stops short of it and it heads the next request.
func TestUnwantablePathHeadsItsOwnRequest(t *testing.T) {
	var asked []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderPrefetch) == "" {
			for _, l := range []string{`</a>`, `</b c>`, `</d>`} {
				w.Header().Add("Link", l+`; rel="prefetch"; spec-p=0.9`)
			}
		} else {
			asked = append(asked, r.URL.Path+" | "+r.Header.Get(HeaderWant))
		}
		_, _ = w.Write([]byte("body"))
	}))
	defer ts.Close()
	c := NewClient(ts.URL, ClientConfig{ID: "u", PrefetchThreshold: 0.3})
	if _, _, err := c.Get("/page"); err != nil {
		t.Fatal(err)
	}
	// This server answers every prefetch with the head alone, so /d is
	// asked for twice: behind /b c, then on its own.
	want := []string{"/a | ", "/b c | /d;900", "/d | "}
	if !reflect.DeepEqual(asked, want) {
		t.Errorf("prefetch requests %q, want %q", asked, want)
	}
	if st := c.Stats(); st.Prefetched != 3 || st.PrefetchRoundTrips != 3 {
		t.Errorf("stats %+v", st)
	}
}

// answer is one demand response as a client's transport sees it.
type answer struct {
	header http.Header
	body   []byte
}

// demand sends one demand request for path as client, stating accept, and
// returns the answer without the one header that is the wall clock's.
func demand(t *testing.T, w *testWorld, client, path, accept string) answer {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, w.ts.URL+path, nil)
	req.Header.Set(HeaderClient, client)
	if accept != "" {
		req.Header.Set(HeaderAccept, accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s as %s: %s", path, client, resp.Status)
	}
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		t.Fatal(err)
	}
	resp.Header.Del("Date")
	return answer{resp.Header, body}
}

// inlineParts walks a demand answer and returns, in order, the documents
// riding behind the requested one with what each part says of itself.
func inlineParts(t *testing.T, a answer) (parts []string) {
	t.Helper()
	boundary, ok := bundleBoundaryOf(a.header.Get("Content-Type"))
	if !ok {
		return nil
	}
	walked, err := walkParts(a.body, boundary)
	if err != nil || len(walked) == 0 {
		t.Fatalf("bundle of %d parts: %v", len(walked), err)
	}
	for _, part := range walked[1:] {
		parts = append(parts, fmt.Sprintf("%s p=%s pushed=%s", part.loc, part.specP, part.pushed))
	}
	return parts
}

// TestInlinePrefetch: a hybrid server that is still pushing answers a client
// that stated its threshold with the documents its hints at or above that
// threshold would have had the client fetch, up to MaxPush, each an offer to
// the engine and a prefetch delivery in the ledger, and hints the rest. Every
// other server, rung and client answers exactly as it does without the
// parameter, which is as it did before there was one.
func TestInlinePrefetch(t *testing.T) {
	noPush := func(cfg *ServerConfig) {
		// One overloaded sample past the hold window: up a rung, then held.
		now := time.Date(1996, time.February, 26, 9, 0, 0, 0, time.UTC)
		gov := overload.NewGovernor(overload.GovernorConfig{Target: time.Millisecond, Alpha: 1, Hold: time.Hour,
			Clock: func() time.Time { return now }, Metrics: cfg.Metrics})
		now = now.Add(2 * time.Hour)
		gov.Observe(time.Second)
		cfg.Governor = gov
	}
	guarded := func(cfg *ServerConfig) {
		cfg.Engine.Guard = estguard.New(estguard.Config{Seed: 1, MinRequests: 1 << 20, DriftThreshold: 100})
	}
	for _, tc := range []struct {
		name   string
		mode   Mode
		succs  int
		mutate func(*ServerConfig)
		client string
		accept string
		inline []int // which successors ride behind the page, by their place in the row
		links  int
		rung   string
	}{
		{name: "every hint is at or above the threshold", mode: ModeHybrid, succs: 3, accept: "bundle; prefetch=300", inline: []int{0, 1, 2}},
		{name: "the threshold cuts the row", mode: ModeHybrid, succs: 3, accept: "bundle; prefetch=875", inline: []int{0, 1}, links: 1},
		{name: "the threshold is above the row", mode: ModeHybrid, succs: 3, accept: "bundle; prefetch=900", links: 3},
		{name: "more candidates than MaxPush", mode: ModeHybrid, succs: 6, mutate: func(cfg *ServerConfig) { cfg.MaxPush = 4 },
			accept: "bundle; prefetch=300", inline: []int{0, 1, 2, 3}, links: 2},
		{name: "no threshold stated", mode: ModeHybrid, succs: 3, accept: "bundle", links: 3},
		{name: "malformed threshold", mode: ModeHybrid, succs: 3, accept: "bundle; prefetch=0.3", links: 3},
		{name: "no bundles taken", mode: ModeHybrid, succs: 3, accept: "", links: 3},
		{name: "unknown token", mode: ModeHybrid, succs: 3, accept: "nobundle; prefetch=300", links: 3},
		{name: "hints-mode server", mode: ModeHints, succs: 3, accept: "bundle; prefetch=300", links: 3},
		{name: "no_push rung", mode: ModeHybrid, succs: 3, mutate: noPush, accept: "bundle; prefetch=300", links: 3, rung: "no_push"},
		{name: "quarantined client", mode: ModeHybrid, succs: 3, mutate: guarded, client: "crawler", accept: "bundle; prefetch=300"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			led := attrib.NewLedger(64, obs.NewRegistry())
			w, page, succ := hintedWorld(t, tc.mode, tc.succs, func(cfg *ServerConfig) {
				cfg.Attrib = led
				if tc.mutate != nil {
					tc.mutate(cfg)
				}
			})
			if tc.client == "" {
				tc.client = "stated"
			}
			got := demand(t, w, tc.client, page.Path, tc.accept)
			var want []string
			var pSum int64
			for _, i := range tc.inline {
				pMilli := attrib.PMilli(0.9 - 0.01*float64(i+1))
				want = append(want, fmt.Sprintf("%s p=%d pushed=", succ[i].Path, pMilli))
				pSum += pMilli
			}
			if parts := inlineParts(t, got); !reflect.DeepEqual(parts, want) {
				t.Errorf("behind the page ride %q, want %q", parts, want)
			}
			if rung := got.header.Get(HeaderRung); rung != tc.rung {
				t.Fatalf("answered at rung %q, want %q", rung, tc.rung)
			}
			if links := got.header.Values("Link"); len(links) != tc.links {
				t.Errorf("%d hints, want %d: %q", len(links), tc.links, links)
			}
			if st := w.server.Stats(); st.HintsSent != int64(tc.links) || st.DocsPushed != 0 {
				t.Errorf("server counted %d hints and %d pushes, want %d and none", st.HintsSent, st.DocsPushed, tc.links)
			}
			if st := w.server.Engine().Stats(); st.Recorded != 1 || st.OffersOutstanding != int64(len(tc.inline)) {
				t.Errorf("engine recorded %d accesses and holds %d offers, want 1 and %d", st.Recorded, st.OffersOutstanding, len(tc.inline))
			}
			rep := led.Report(0)
			if tot := rep.Classes[attrib.ClassPrefetch]; rep.Totals != tot || tot.Deliveries != int64(len(tc.inline)) || tot.PMilliSum != pSum {
				t.Errorf("server ledger %+v (prefetch class %+v), want %d prefetch deliveries, p sum %d", rep.Totals, tot, len(tc.inline), pSum)
			}
			if len(tc.inline) > 0 {
				return
			}
			// Nothing rode along: the parameter changed not a byte.
			bare, _, _ := strings.Cut(tc.accept, ";")
			if plain := demand(t, w, tc.client, page.Path, bare); !reflect.DeepEqual(got, plain) {
				t.Errorf("answer to Spec-Accept %q: %v and %d bytes; to %q: %v and %d bytes", tc.accept, got.header, len(got.body), bare, plain.header, len(plain.body))
			}
		})
	}
}

// TestPushModeIgnoresThreshold: a push-mode server has no hints to replace;
// its bundle is the same with the parameter and without.
func TestPushModeIgnoresThreshold(t *testing.T) {
	w, page, _ := hintedWorld(t, ModePush, 3, nil)
	got := demand(t, w, "p", page.Path, "bundle; prefetch=300")
	if parts := inlineParts(t, got); len(parts) != 3 || !strings.HasSuffix(parts[0], "pushed=1") {
		t.Fatalf("push-mode bundle carries %q", parts)
	}
	if plain := demand(t, w, "p", page.Path, "bundle"); !reflect.DeepEqual(got, plain) {
		t.Errorf("push-mode answers differ:\n%v\n%v", got.header, plain.header)
	}
}

// twoPageWorld is a hybrid world in which the same three documents follow
// two different pages.
func twoPageWorld(t *testing.T, led *attrib.Ledger) (w *testWorld, pages [2]*webgraph.Document, succ []*webgraph.Document) {
	t.Helper()
	w, pages[0], succ = hintedWorld(t, ModeHybrid, 3, func(cfg *ServerConfig) { cfg.Attrib = led })
	pages[1] = unhinted(t, w.site, pages[0], succ)
	snap := hintSnapshot(pages[0], succ)
	second := hintSnapshot(pages[1], succ).Rows[0]
	snap.Rows = append(snap.Rows, second)
	slices.SortFunc(snap.Rows, func(a, b checkpoint.Row) int { return int(a.Doc) - int(b.Doc) })
	if err := w.server.Engine().WarmStart(snap, w.clock()); err != nil {
		t.Fatal(err)
	}
	return w, pages, succ
}

// TestClientAdmitsInlinePrefetch: what rides behind a demand answer enters
// the cache as the prefetch it replaces would have — counted, ledgered at the
// part's stated probability, its fate reported — in no round trip of its
// own. A copy of a document the client already holds is bytes in for
// nothing, and the server hears so: at once for a document whose own fate is
// already reported, behind that report for one still unused, so that the one
// offer the server keeps is settled by the copy that can still be used.
func TestClientAdmitsInlinePrefetch(t *testing.T) {
	srvLed := attrib.NewLedger(64, obs.NewRegistry())
	cliLed := attrib.NewLedger(64, obs.NewRegistry())
	w, pages, succ := twoPageWorld(t, srvLed)
	var sizes int64
	for _, d := range succ {
		sizes += d.Size
	}
	c := NewClient(w.ts.URL, ClientConfig{ID: "inline", AcceptBundles: true, PrefetchThreshold: 0.3, Attrib: cliLed})
	if _, _, err := c.Get(pages[0].Path); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Prefetched != 3 || st.PrefetchRoundTrips != 0 || st.Pushed != 0 || st.BytesIn != pages[0].Size+sizes {
		t.Errorf("after the first page: %+v, want 3 prefetched in no round trip and %d bytes in", st, pages[0].Size+sizes)
	}
	if got := w.server.Stats(); got.Requests != 1 || got.HintsSent != 0 {
		t.Errorf("server handled %d requests and sent %d hints, want 1 and none", got.Requests, got.HintsSent)
	}
	if got := cliLed.Report(0).Classes[attrib.ClassPrefetch]; got.Deliveries != 3 || got.PMilliSum != 890+880+870 {
		t.Errorf("client ledger %+v, want the three deliveries at the parts' probabilities", got)
	}
	if got := w.server.Engine().Stats(); got.Recorded != 1 || got.OffersOutstanding != 3 {
		t.Errorf("engine recorded %d accesses and holds %d offers, want 1 and 3", got.Recorded, got.OffersOutstanding)
	}

	// The user opens the first; the second page brings all three again.
	if _, hit, err := c.Get(succ[0].Path); err != nil || !hit {
		t.Fatalf("%s: hit %v, err %v", succ[0].Path, hit, err)
	}
	w.advance(time.Second)
	if _, _, err := c.Get(pages[1].Path); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Prefetched != 3 || st.PrefetchRoundTrips != 0 || st.SpecHits != 1 || st.BytesIn != pages[0].Size+pages[1].Size+2*sizes {
		t.Errorf("after the second page: %+v, want the duplicates counted in bytes only", st)
	}
	if got := cliLed.Report(0); got.Classes[attrib.ClassPrefetch].Deliveries != 6 || got.Classes[attrib.ClassPrefetch].Wasted != 3 || got.Outstanding != 2 {
		t.Errorf("client ledger %+v, want six deliveries, the three duplicates wasted, two outstanding", got)
	}
	// The report on the opened one came with the request; its duplicate's is
	// queued, the other two wait for their documents' own.
	if got := w.server.Engine().Stats(); got.Recorded != 3 || got.OffersOutstanding != 3 {
		t.Errorf("engine recorded %d accesses and holds %d offers, want 3 and 3", got.Recorded, got.OffersOutstanding)
	}
	if _, hit, err := c.Get(succ[1].Path); err != nil || !hit {
		t.Fatalf("%s: hit %v, err %v", succ[1].Path, hit, err)
	}
	c.ResolveOutstanding()
	if got := cliLed.Report(0); got.Outstanding != 0 || got.Classes[attrib.ClassPrefetch].Consumed != 2 || got.Classes[attrib.ClassPrefetch].Wasted != 4 {
		t.Errorf("client ledger %+v, want nothing outstanding, two consumed, four wasted", got)
	}
	var other *webgraph.Document
	for i := range w.site.Docs {
		if d := &w.site.Docs[i]; d != pages[0] && d != pages[1] && !slices.Contains(succ, d) {
			other = d
		}
	}
	if _, _, err := c.Get(other.Path); err != nil {
		t.Fatal(err)
	}
	// Two pages, the unhinted document, and the two prefetches used — the
	// second of them a copy delivered twice and learned once.
	if got := w.server.Engine().Stats(); got.Recorded != 5 || got.OffersOutstanding != 0 || got.OffersExpired != 0 {
		t.Errorf("engine recorded %d accesses and holds %d offers (%d expired), want 5 and none", got.Recorded, got.OffersOutstanding, got.OffersExpired)
	}
	if got := srvLed.Report(0); got.Outstanding != 0 || got.Classes[attrib.ClassPrefetch].Consumed != 2 || got.Classes[attrib.ClassPrefetch].Wasted != 4 {
		t.Errorf("server ledger %+v, want nothing outstanding, two consumed, four wasted", got)
	}
}

// TestOverflowStaysHinted: the candidates one answer has no room for stay
// hints, and the client fetches them as it always did, in one Spec-Want
// round trip; nothing arrives twice.
func TestOverflowStaysHinted(t *testing.T) {
	const hinted = 6
	w, page, succ := hintedWorld(t, ModeHybrid, hinted, func(cfg *ServerConfig) { cfg.MaxPush = 4 })
	c := NewClient(w.ts.URL, ClientConfig{ID: "overflow", AcceptBundles: true, PrefetchThreshold: 0.3})
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	var sizes int64
	for _, d := range succ {
		sizes += d.Size
		if !c.Cached(d.Path) {
			t.Errorf("%s did not arrive", d.Path)
		}
	}
	if st := c.Stats(); st.Prefetched != hinted || st.PrefetchRoundTrips != 1 || st.BytesIn != page.Size+sizes {
		t.Errorf("%+v, want %d prefetched, one round trip, %d bytes in", st, hinted, page.Size+sizes)
	}
	if got := w.server.Stats(); got.Requests != 2 || got.HintsSent != hinted-4 {
		t.Errorf("server handled %d requests and sent %d hints, want 2 and %d", got.Requests, got.HintsSent, hinted-4)
	}
	if got := w.server.Engine().Stats(); got.Recorded != 1 || got.OffersOutstanding != hinted {
		t.Errorf("engine recorded %d accesses and holds %d offers, want 1 and %d", got.Recorded, got.OffersOutstanding, hinted)
	}
}
