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
// perDocument swaps the client's own hint following for the reference loop.
func runPrefetchArm(t *testing.T, site *webgraph.Site, tr *trace.Trace, perDocument bool) prefetchArm {
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

// TestBatchedPrefetchMatchesPerDocument is the tentpole's contract: batching
// changes how many requests carry the prefetched documents and nothing
// else. One department-profile trace goes through the client's batched hint
// following and through the per-document loop it replaced, each against a
// fresh learning server: every client counter, both ledgers and the sequence
// of accesses the engine recorded are the same, and the server handled
// fewer requests by exactly the round trips saved. Either way a prefetched
// document is an offer to the engine and an access only once its client has
// reported it consumed.
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
	ref := runPrefetchArm(t, site, res.Trace, true)
	got := runPrefetchArm(t, site, res.Trace, false)

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
			raw = appendPartHeader(raw, i == 0, p, len(body), p == "/evil-pushed", 999)
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
