package httpspec

import (
	"context"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specweb/internal/checkpoint"
	"specweb/internal/core"
	"specweb/internal/leakcheck"
	"specweb/internal/obs"
	"specweb/internal/stats"
	"specweb/internal/webgraph"
)

// testWorld builds a tiny site, a speculative server over it, and a clock
// the test controls.
type testWorld struct {
	site   *webgraph.Site
	store  *SiteStore
	server *Server
	ts     *httptest.Server
	mu     sync.Mutex
	now    time.Time
}

func newWorld(t *testing.T, mode Mode) *testWorld {
	return newWorldCfg(t, mode, nil)
}

// newWorldCfg is newWorld with a hook to adjust the server config (e.g.
// to attach overload control) before the server is built.
func newWorldCfg(t *testing.T, mode Mode, mutate func(*ServerConfig)) *testWorld {
	t.Helper()
	leakcheck.Check(t) // registered before ts.Close, so it settles last
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{
		site:  site,
		store: NewSiteStore(site),
		now:   time.Date(1995, time.June, 1, 9, 0, 0, 0, time.UTC),
	}
	cfg := DefaultServerConfig()
	cfg.Mode = mode
	cfg.Engine.MinOccurrences = 2
	cfg.Engine.Tp = 0.3
	// Short training runs keep smoothed probabilities below the default
	// 0.95 certainty bar; 0.8 keeps the hybrid split observable.
	cfg.Engine.EmbedThreshold = 0.8
	cfg.Clock = func() time.Time {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.now
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(w.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.server = srv
	w.ts = httptest.NewServer(srv)
	t.Cleanup(w.ts.Close)
	return w
}

func (w *testWorld) advance(d time.Duration) {
	w.mu.Lock()
	w.now = w.now.Add(d)
	w.mu.Unlock()
}

// pageWithEmbedded finds a page that embeds at least one object.
func pageWithEmbedded(t *testing.T, site *webgraph.Site) *webgraph.Document {
	t.Helper()
	for i := range site.Docs {
		d := &site.Docs[i]
		if d.Kind == webgraph.Page && len(d.Embedded) > 0 {
			return d
		}
	}
	t.Fatal("no page with embedded objects")
	return nil
}

// train teaches the server's engine that the page's embedded objects follow
// it: n browsing episodes from distinct clients, then a refresh.
func (w *testWorld) train(t *testing.T, page *webgraph.Document, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c := NewClient(w.ts.URL, ClientConfig{ID: "trainer"})
		if _, _, err := c.Get(page.Path); err != nil {
			t.Fatal(err)
		}
		for _, e := range page.Embedded {
			w.advance(300 * time.Millisecond)
			if _, _, err := c.Get(w.site.Doc(e).Path); err != nil {
				t.Fatal(err)
			}
		}
		w.advance(time.Hour)
	}
	w.server.Engine().Refresh(w.clock())
}

func (w *testWorld) clock() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now
}

func TestServeDocumentBasics(t *testing.T) {
	w := newWorld(t, ModePush)
	d := &w.site.Docs[0]
	resp, err := http.Get(w.ts.URL + d.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if int64(len(body)) != d.Size {
		t.Errorf("body %d bytes, want %d", len(body), d.Size)
	}
	if !strings.Contains(string(body[:64]), "specweb synthetic") {
		t.Errorf("unexpected body prefix %q", body[:32])
	}
	if w.server.Stats().Requests != 1 {
		t.Errorf("requests = %d", w.server.Stats().Requests)
	}
}

func TestNotFound(t *testing.T) {
	w := newWorld(t, ModePush)
	resp, err := http.Get(w.ts.URL + "/no/such/doc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if w.server.Stats().NotFound != 1 {
		t.Error("not-found not counted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	w := newWorld(t, ModePush)
	resp, err := http.Post(w.ts.URL+w.site.Docs[0].Path, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestBundlePushAfterTraining(t *testing.T) {
	w := newWorld(t, ModePush)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 10)

	c := NewClient(w.ts.URL, ClientConfig{ID: "reader", AcceptBundles: true})
	if _, fromCache, err := c.Get(page.Path); err != nil || fromCache {
		t.Fatalf("get page: %v fromCache=%v", err, fromCache)
	}
	if c.Stats().Pushed == 0 {
		t.Fatal("no documents pushed despite training")
	}
	// Embedded objects now come from cache: zero extra server requests.
	before := w.server.Stats().Requests
	for _, e := range page.Embedded {
		body, fromCache, err := c.Get(w.site.Doc(e).Path)
		if err != nil {
			t.Fatal(err)
		}
		if !fromCache {
			t.Errorf("embedded %d not served from cache", e)
		}
		if int64(len(body)) != w.site.Doc(e).Size {
			t.Errorf("pushed body has %d bytes, want %d", len(body), w.site.Doc(e).Size)
		}
	}
	if after := w.server.Stats().Requests; after != before {
		t.Errorf("server saw %d extra requests for cached docs", after-before)
	}
}

func TestBundleRequiresOptIn(t *testing.T) {
	w := newWorld(t, ModePush)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 10)
	resp, err := http.Get(w.ts.URL + page.Path) // no Spec-Accept
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "multipart/") {
		t.Error("bundle sent without opt-in")
	}
}

func TestCooperativeDigestSuppressesPush(t *testing.T) {
	w := newWorld(t, ModePush)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 10)

	c := NewClient(w.ts.URL, ClientConfig{ID: "coop", AcceptBundles: true, Cooperative: true})
	// Pre-load the embedded objects into the client cache.
	for _, e := range page.Embedded {
		if _, _, err := c.Get(w.site.Doc(e).Path); err != nil {
			t.Fatal(err)
		}
	}
	pushedBefore := w.server.Stats().DocsPushed
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	// The client fetched the embedded docs in this session, so its session
	// set holds them and the server must not push them again; the digest
	// the client also sends is not read.
	if got := w.server.Stats().DocsPushed; got != pushedBefore {
		t.Errorf("server pushed %d docs the client already had", got-pushedBefore)
	}
}

// TestRequestedDocumentNeverSpeculated: the document being served is never
// also pushed or hinted, even when the matrix row lists it as its own
// successor (no estimator produces that row; a warm start puts it there).
// The server relies on the engine for this. It reads no Spec-Have digest,
// so a digest naming the requested document or its successor changes
// nothing: the successor is still speculated (the request names no
// session, so no set holds it) and nothing is "suppressed by the digest".
func TestRequestedDocumentNeverSpeculated(t *testing.T) {
	for name, mode := range map[string]Mode{"push": ModePush, "hints": ModeHints, "hybrid": ModeHybrid} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			w := newWorldWithMetrics(t, mode, reg)
			page := pageWithEmbedded(t, w.site)
			other := w.site.Doc(page.Embedded[0])
			p := func(v float64) uint64 { return math.Float64bits(v) }
			err := w.server.Engine().WarmStart(&checkpoint.Snapshot{
				Knobs: checkpoint.Knobs{Tp: 0.3, Embed: 0.8},
				Rows: []checkpoint.Row{{Doc: int32(page.ID), Succ: []checkpoint.Succ{
					{Doc: int32(page.ID), PBits: p(1)},
					{Doc: int32(other.ID), PBits: p(0.9)},
				}}},
			}, w.clock())
			if err != nil {
				t.Fatal(err)
			}
			suppressed := reg.Counter("specweb_engine_decisions_total", "", obs.Labels{"decision": "digest_suppressed"})

			for _, tc := range []struct {
				name   string
				digest string
			}{
				{"no digest", ""},
				{"digest names it", page.Path},
				{"digest names it and the successor", page.Path + " " + other.Path},
			} {
				supp0 := suppressed.Value()
				req, _ := http.NewRequest(http.MethodGet, w.ts.URL+page.Path, nil)
				req.Header.Set(HeaderAccept, acceptBundle)
				if tc.digest != "" {
					req.Header.Set(HeaderHave, tc.digest)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				speculated := map[string]int{}
				for _, l := range resp.Header.Values("Link") {
					if h, ok := parseLinkHint(l); ok {
						speculated[h.path]++
					}
				}
				if _, params, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); params["boundary"] != "" {
					mr := multipart.NewReader(resp.Body, params["boundary"])
					for {
						part, err := mr.NextPart()
						if err != nil {
							break
						}
						if part.Header.Get(HeaderPushed) != "" {
							speculated[part.Header.Get("Content-Location")]++
						}
					}
				}
				resp.Body.Close()
				if n := speculated[page.Path]; n != 0 {
					t.Errorf("%s: requested document speculated %d times", tc.name, n)
				}
				if speculated[other.Path] != 1 {
					t.Errorf("%s: successor not speculated once (%v)", tc.name, speculated)
				}
				if got := suppressed.Value() - supp0; got != 0 {
					t.Errorf("%s: digest_suppressed moved by %d", tc.name, got)
				}
			}
		})
	}
}

func TestHintsMode(t *testing.T) {
	w := newWorld(t, ModeHints)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 10)

	req, _ := http.NewRequest(http.MethodGet, w.ts.URL+page.Path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	links := resp.Header.Values("Link")
	if len(links) == 0 {
		t.Fatal("no Link hints in hints mode")
	}
	if !strings.Contains(links[0], `rel="prefetch"`) || !strings.Contains(links[0], "spec-p=") {
		t.Errorf("malformed hint %q", links[0])
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "multipart/") {
		t.Error("hints mode must not push bundles")
	}
}

func TestClientFollowsHints(t *testing.T) {
	w := newWorld(t, ModeHints)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 10)

	c := NewClient(w.ts.URL, ClientConfig{ID: "pf", PrefetchThreshold: 0.3})
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Prefetched == 0 {
		t.Fatal("client followed no hints")
	}
	// The hinted embedded docs must now be cache hits.
	hit := false
	for _, e := range page.Embedded {
		if c.Cached(w.site.Doc(e).Path) {
			hit = true
		}
	}
	if !hit {
		t.Error("no embedded doc prefetched")
	}
}

func TestHybridMode(t *testing.T) {
	w := newWorld(t, ModeHybrid)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 12)

	c := NewClient(w.ts.URL, ClientConfig{ID: "hy", AcceptBundles: true, PrefetchThreshold: 0.3})
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Pushed == 0 {
		t.Error("hybrid pushed nothing (embeddings are near-certain)")
	}
}

func TestClientSessionPurge(t *testing.T) {
	w := newWorld(t, ModePush)
	d := &w.site.Docs[0]
	c := NewClient(w.ts.URL, ClientConfig{ID: "s"})
	if _, _, err := c.Get(d.Path); err != nil {
		t.Fatal(err)
	}
	if _, fromCache, _ := c.Get(d.Path); !fromCache {
		t.Error("second get should hit cache")
	}
	c.EndSession()
	if _, fromCache, _ := c.Get(d.Path); fromCache {
		t.Error("cache survived session end")
	}
}

func TestStatsEndpoint(t *testing.T) {
	w := newWorld(t, ModePush)
	warm, err := http.Get(w.ts.URL + w.site.Docs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close() // an unclosed body pins the transport's conn goroutines
	resp, err := http.Get(w.ts.URL + "/spec/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"Requests":1`) {
		t.Errorf("stats body %s", body)
	}
}

func TestReplicasEndpointAndProxy(t *testing.T) {
	w := newWorld(t, ModePush)
	// Make one document remotely popular.
	popular := &w.site.Docs[0]
	for i := 0; i < 20; i++ {
		req, _ := http.NewRequest(http.MethodGet, w.ts.URL+popular.Path, nil)
		req.Header.Set(HeaderClient, "far.away.example.com")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	proxy := NewProxy(w.ts.URL, nil)
	n, err := proxy.Disseminate(context.Background(), popular.Size+100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("disseminated %d docs, want 1", n)
	}
	pts := httptest.NewServer(proxy)
	defer pts.Close()

	// Replica hit: served by the proxy, not the origin.
	before := w.server.Stats().Requests
	resp, err := http.Get(pts.URL + popular.Path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Served-By") != "specweb-proxy" {
		t.Error("hit not served by proxy")
	}
	if int64(len(body)) != popular.Size {
		t.Errorf("proxy body %d bytes, want %d", len(body), popular.Size)
	}
	if w.server.Stats().Requests != before {
		t.Error("origin saw the replica hit")
	}

	// Miss: forwarded to origin. Pick a document that is not the replica.
	var other *webgraph.Document
	for i := range w.site.Docs {
		if w.site.Docs[i].ID != popular.ID {
			other = &w.site.Docs[i]
			break
		}
	}
	resp, err = http.Get(pts.URL + other.Path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if int64(len(body)) != other.Size {
		t.Errorf("forwarded body %d bytes, want %d", len(body), other.Size)
	}
	st := proxy.Stats()
	if st.Hits != 1 || st.Misses == 0 || st.Replicas != 1 {
		t.Errorf("proxy stats %+v", st)
	}
}

func TestProxyDisseminateBadBudget(t *testing.T) {
	w := newWorld(t, ModePush)
	resp, err := http.Get(w.ts.URL + "/spec/replicas?budget=-5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestRemoteClassification(t *testing.T) {
	if isRemote("ws01.local") {
		t.Error(".local should be local")
	}
	if !isRemote("client.example.com") {
		t.Error("external host should be remote")
	}
}

func TestParseLinkHint(t *testing.T) {
	h, ok := parseLinkHint(`</a/b>; rel="prefetch"; spec-p=0.420`)
	if !ok || h.path != "/a/b" || h.p < 0.41 || h.p > 0.43 {
		t.Errorf("parsed %+v ok=%v", h, ok)
	}
	if _, ok := parseLinkHint(`</a>; rel="stylesheet"`); ok {
		t.Error("non-prefetch link accepted")
	}
	if _, ok := parseLinkHint(`garbage`); ok {
		t.Error("garbage accepted")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, DefaultServerConfig()); err == nil {
		t.Error("nil store accepted")
	}
	cfg := DefaultServerConfig()
	cfg.Engine.Window = 0
	site, _ := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(1))
	if _, err := NewServer(NewSiteStore(site), cfg); err == nil {
		t.Error("bad engine config accepted")
	}
}

func TestSiteStore(t *testing.T) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	st := NewSiteStore(site)
	d := &site.Docs[3]
	id, ok := st.Lookup(d.Path)
	if !ok || id != d.ID {
		t.Errorf("lookup %q = %v %v", d.Path, id, ok)
	}
	if _, ok := st.Lookup("/missing"); ok {
		t.Error("missing path resolved")
	}
	if p, ok := st.Path(d.ID); !ok || p != d.Path {
		t.Errorf("path = %q", p)
	}
	if s, ok := st.Size(d.ID); !ok || s != d.Size {
		t.Errorf("size = %d", s)
	}
	body, ok := st.Content(d.ID)
	if !ok || int64(len(body)) != d.Size {
		t.Errorf("content %d bytes, want %d", len(body), d.Size)
	}
	if _, ok := st.Content(webgraph.None); ok {
		t.Error("content for invalid ID")
	}
	// Deterministic.
	body2, _ := st.Content(d.ID)
	if string(body) != string(body2) {
		t.Error("content not deterministic")
	}
	if st.Site() != site {
		t.Error("site accessor broken")
	}
}

func TestEngineIntegrationViaCoreStats(t *testing.T) {
	w := newWorld(t, ModePush)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 5)
	var est core.Stats = w.server.Engine().Stats()
	if est.Recorded == 0 || est.Pairs == 0 {
		t.Errorf("engine stats %+v", est)
	}
}

func TestStoreInvalidIDs(t *testing.T) {
	site, _ := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(9))
	st := NewSiteStore(site)
	if _, ok := st.Path(webgraph.None); ok {
		t.Error("Path(None) resolved")
	}
	if _, ok := st.Size(webgraph.None); ok {
		t.Error("Size(None) resolved")
	}
}

func TestServerReplicatorAccessor(t *testing.T) {
	w := newWorld(t, ModePush)
	if w.server.Replicator() == nil {
		t.Fatal("nil replicator")
	}
	resp, err := http.Get(w.ts.URL + w.site.Docs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	total, _ := w.server.Replicator().Requests()
	if total != 1 {
		t.Errorf("replicator saw %d requests", total)
	}
}

func TestServerDefaultClock(t *testing.T) {
	leakcheck.Check(t)
	site, _ := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(9))
	cfg := DefaultServerConfig() // no Clock
	srv, err := NewServer(NewSiteStore(site), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + site.Docs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.Stats().Requests != 1 {
		t.Error("wall-clock server did not serve")
	}
}

func TestProxyForwardsToDeadOrigin(t *testing.T) {
	leakcheck.Check(t)
	proxy := NewProxy("http://127.0.0.1:1", nil) // nothing listens there
	pts := httptest.NewServer(proxy)
	defer pts.Close()
	resp, err := http.Get(pts.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
	if proxy.Stats().ForwardErrors != 1 {
		t.Error("forward error not counted")
	}
	if _, err := proxy.Disseminate(context.Background(), 1000); err == nil {
		t.Error("dissemination from dead origin succeeded")
	}
}

func TestClientPrefetchSkipsCached(t *testing.T) {
	w := newWorld(t, ModeHints)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 10)
	c := NewClient(w.ts.URL, ClientConfig{ID: "pf2", PrefetchThreshold: 0.3})
	// Warm the cache with the embedded docs first (their responses may
	// themselves carry hints and trigger prefetches; that is fine).
	for _, e := range page.Embedded {
		if _, _, err := c.Get(w.site.Doc(e).Path); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().Prefetched
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	// The page's hinted successors are its embedded objects, all cached:
	// no new prefetches.
	if got := c.Stats().Prefetched - before; got != 0 {
		t.Errorf("client prefetched %d docs it already had", got)
	}
}
