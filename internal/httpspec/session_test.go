package httpspec

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/estguard"
	"specweb/internal/obs"
	"specweb/internal/resilience/faults"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// ask sends one request for path with the given headers and returns the
// answer without its Date.
func ask(t *testing.T, w *testWorld, path string, headers ...string) answer {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, w.ts.URL+path, nil)
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", path, resp.Status)
	}
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		t.Fatal(err)
	}
	resp.Header.Del("Date")
	return answer{resp.Header, body}
}

// locs is the documents an answer carries behind the requested one.
func locs(t *testing.T, a answer) (paths []string) {
	t.Helper()
	for _, p := range inlineParts(t, a) {
		path, _, _ := strings.Cut(p, " ")
		paths = append(paths, path)
	}
	return paths
}

func pathsOf(docs ...*webgraph.Document) (paths []string) {
	for _, d := range docs {
		paths = append(paths, d.Path)
	}
	return paths
}

// TestSessionSetSkipsHeldParts: within one session the server sends no
// document twice — pushed, sent in place of a hint, or named by Spec-Want —
// and the document asked for counts as sent. Another token is another
// session and starts from nothing.
func TestSessionSetSkipsHeldParts(t *testing.T) {
	equal := func(t *testing.T, what string, got []string, want ...string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: %q, want %q", what, got, want)
		}
	}
	t.Run("pushes", func(t *testing.T) {
		w, page, succ := hintedWorld(t, ModePush, 3, nil)
		accept := func(session string) string { return "bundle; session=" + session }
		equal(t, "first answer", locs(t, demand(t, w, "s", page.Path, accept("a1"))), pathsOf(succ...)...)
		again := demand(t, w, "s", page.Path, accept("a1"))
		equal(t, "same session", locs(t, again))
		if !bytes.Equal(again.body, mustContent(t, w, page)) {
			t.Error("the second answer is not the page alone")
		}
		equal(t, "new session", locs(t, demand(t, w, "s", page.Path, accept("a2"))), pathsOf(succ...)...)
		demand(t, w, "s", succ[1].Path, accept("a3"))
		equal(t, "after a demand fetch", locs(t, demand(t, w, "s", page.Path, accept("a3"))), pathsOf(succ[0], succ[2])...)
		if st := w.server.Stats(); st.DocsPushed != 8 {
			t.Errorf("%d documents pushed, want 3 + 3 + 2", st.DocsPushed)
		}
	})
	t.Run("inline prefetches", func(t *testing.T) {
		w, page, succ := hintedWorld(t, ModeHybrid, 3, nil)
		const accept = "bundle; prefetch=300; session=b1"
		equal(t, "first answer", locs(t, demand(t, w, "s", page.Path, accept)), pathsOf(succ...)...)
		again := demand(t, w, "s", page.Path, accept)
		equal(t, "same session", locs(t, again))
		if links := again.header.Values("Link"); len(links) != 0 {
			t.Errorf("the session is hinted what it holds: %q", links)
		}
		if st := w.server.Engine().Stats(); st.OffersOutstanding != 3 {
			t.Errorf("%d offers outstanding, want the first answer's 3", st.OffersOutstanding)
		}
	})
	t.Run("Spec-Want parts", func(t *testing.T) {
		w, page, succ := hintedWorld(t, ModeHints, 3, nil)
		want := func() answer {
			return ask(t, w, succ[0].Path, HeaderClient, "s", HeaderAccept, "bundle; prefetch=300; session=c1",
				HeaderPrefetch, "890", HeaderWant, succ[1].Path+";880 "+succ[2].Path+";870")
		}
		equal(t, "first answer", locs(t, want()), pathsOf(succ[1], succ[2])...)
		again := want()
		if _, bundle := bundleBoundaryOf(again.header.Get("Content-Type")); bundle || !bytes.Equal(again.body, mustContent(t, w, succ[0])) {
			t.Error("the second answer is not the head alone")
		}
		hinted := ask(t, w, page.Path, HeaderClient, "s", HeaderAccept, "bundle; prefetch=300; session=c1")
		if links := hinted.header.Values("Link"); len(links) != 0 {
			t.Errorf("the session is hinted what it holds: %q", links)
		}
		if st := w.server.Engine().Stats(); st.OffersOutstanding != 3 {
			t.Errorf("%d offers outstanding, want the first answer's 3", st.OffersOutstanding)
		}
	})
}

func mustContent(t *testing.T, w *testWorld, d *webgraph.Document) []byte {
	t.Helper()
	body, ok := w.store.Content(d.ID)
	if !ok {
		t.Fatalf("no content for %s", d.Path)
	}
	return body
}

// TestSessionSendsNoCopy is TestClientAdmitsInlinePrefetch without the hop
// that hides the session: the second page brings nothing the client holds,
// so nothing arrives twice and nothing is wasted on arrival.
func TestSessionSendsNoCopy(t *testing.T) {
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
	if _, hit, err := c.Get(succ[0].Path); err != nil || !hit {
		t.Fatalf("%s: hit %v, err %v", succ[0].Path, hit, err)
	}
	w.advance(time.Second)
	if _, _, err := c.Get(pages[1].Path); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Prefetched != 3 || st.SpecHits != 1 || st.BytesIn != pages[0].Size+pages[1].Size+sizes {
		t.Errorf("after the second page: %+v, want no byte twice", st)
	}
	if got := w.server.Stats(); got.Requests != 2 || got.HintsSent != 0 || got.BundlesBuilt != 1 {
		t.Errorf("server %+v, want two requests, one bundle and no hint", got)
	}
	if got := cliLed.Report(0).Classes[attrib.ClassPrefetch]; got.Deliveries != 3 || got.Wasted != 0 {
		t.Errorf("client ledger %+v, want the three deliveries and nothing wasted", got)
	}
	// The report on the opened one came with the second page's request.
	if got := w.server.Engine().Stats(); got.Recorded != 3 || got.OffersOutstanding != 2 {
		t.Errorf("engine recorded %d accesses and holds %d offers, want 3 and 2", got.Recorded, got.OffersOutstanding)
	}
}

// TestSessionTokenIsPerClientObject: the token is drawn at random, so a
// fresh client under an ID the server has seen inherits nothing, and a
// client that ends its session is sent everything again.
func TestSessionTokenIsPerClientObject(t *testing.T) {
	w, page, succ := hintedWorld(t, ModePush, 3, nil)
	get := func(c *Client) {
		t.Helper()
		if _, _, err := c.Get(page.Path); err != nil {
			t.Fatal(err)
		}
	}
	cfg := ClientConfig{ID: "same", AcceptBundles: true}
	first := NewClient(w.ts.URL, cfg)
	get(first)
	get(first) // a cache hit: no request
	first.EndSession()
	get(first)
	if st := first.Stats(); st.Pushed != 6 {
		t.Errorf("a client that ended its session was pushed %d, want 3 each session", st.Pushed)
	}
	second := NewClient(w.ts.URL, cfg)
	get(second)
	if st := second.Stats(); st.Pushed != 3 {
		t.Errorf("a fresh client under the same ID was pushed %d, want 3", st.Pushed)
	}
	for _, d := range succ {
		if !second.Cached(d.Path) {
			t.Errorf("%s did not reach the fresh client", d.Path)
		}
	}
}

// TestSessionQuarantinedClientKeepsNoSet: a quarantined client is served
// without speculation, and nothing it is sent enters a set.
func TestSessionQuarantinedClientKeepsNoSet(t *testing.T) {
	w, page, _ := hintedWorld(t, ModePush, 3, func(cfg *ServerConfig) {
		cfg.Engine.Guard = estguard.New(estguard.Config{Seed: 1, MinRequests: 1 << 20, DriftThreshold: 100})
	})
	for _, client := range []string{"crawler", "human"} {
		a := demand(t, w, client, page.Path, "bundle; session=q1")
		held := w.server.Engine().Held(trace.ClientID(client), sessionKey("q1"), page.ID)
		if quarantined := client == "crawler"; held == quarantined || (a.header.Get(HeaderQuarantine) != "") != quarantined {
			t.Errorf("%s: held %v, quarantine header %q", client, held, a.header.Get(HeaderQuarantine))
		}
	}
}

// TestSessionConcurrentGets: one client's requests in flight at once, and
// its session ending among them, against a learning hybrid server — run
// under -race. Every body is the document's.
func TestSessionConcurrentGets(t *testing.T) {
	w, page, succ := hintedWorld(t, ModeHybrid, 6, func(cfg *ServerConfig) { cfg.MaxPush = 3 })
	c := NewClient(w.ts.URL, ClientConfig{ID: "busy", AcceptBundles: true, PrefetchThreshold: 0.3})
	docs := append([]*webgraph.Document{page}, succ...)
	bodies := make([][]byte, len(docs))
	for i, d := range docs {
		bodies[i] = mustContent(t, w, d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				i := (g + k) % len(docs)
				body, _, err := c.Get(docs[i].Path)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, bodies[i]) {
					t.Errorf("%s: wrong body", docs[i].Path)
				}
				if k%7 == g {
					c.EndSession()
				}
			}
		}()
	}
	wg.Wait()
}

// TestSessionSetUnderTruncation: bundles cut short in transit lose parts
// the server has entered as sent. What is lost is fetched later as the
// demand it then is; no request fails for it and no body is wrong. Run
// against a server trained on the same trace, with a fifth of the
// responses truncated and retries on.
func TestSessionSetUnderTruncation(t *testing.T) {
	w := newWorld(t, ModeHybrid)
	scfg := synth.DefaultConfig(w.site, nil)
	scfg.Days = 1
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 20
	scfg.LocalClients = 5
	res, err := synth.Generate(scfg, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	drive := func(hc *http.Client) (sum ClientStats, failed int) {
		clients := map[trace.ClientID]*Client{}
		for i, r := range res.Trace.Requests {
			c := clients[r.Client]
			if c == nil {
				c = NewClient(w.ts.URL, ClientConfig{ID: string(r.Client), AcceptBundles: true, PrefetchThreshold: 0.3,
					HTTP: hc, Retry: fastRetry(4)})
				clients[r.Client] = c
			}
			if i%20 == 19 {
				c.EndSession()
			}
			id, ok := w.store.Lookup(r.Path)
			body, _, err := c.Get(r.Path)
			switch {
			case !ok:
			case err != nil:
				failed++
			default:
				if want, _ := w.store.Content(id); !bytes.Equal(body, want) {
					t.Fatalf("%s: wrong body", r.Path)
				}
			}
		}
		for _, c := range clients {
			sum = sum.Add(c.Stats())
		}
		return sum, failed
	}
	drive(http.DefaultClient)
	w.advance(time.Hour)
	w.server.Engine().Refresh(w.clock())

	inj := faults.New(faults.Config{Seed: 7, TruncateRate: 0.2, Metrics: obs.NewRegistry()})
	sum, failed := drive(&http.Client{Transport: inj.Transport(http.DefaultTransport)})
	if inj.Stats().Truncations == 0 || sum.Retries == 0 {
		t.Fatalf("nothing was truncated: %+v, %+v", inj.Stats(), sum)
	}
	if sum.Pushed+sum.Prefetched == 0 {
		t.Fatalf("nothing speculative arrived: %+v", sum)
	}
	if avail := 1 - float64(failed)/float64(sum.Fetches); avail <= 0.99 {
		t.Errorf("availability %.4f with a fifth of the answers truncated (%d of %d failed)", avail, failed, sum.Fetches)
	}
	t.Logf("%+v, %d failed, %d truncated", sum, failed, inj.Stats().Truncations)
}

// The session token a client states is 16 lowercase hex digits, one token
// per session.
func TestClientStatesSessionToken(t *testing.T) {
	c := NewClient("http://origin", ClientConfig{AcceptBundles: true, PrefetchThreshold: 0.25})
	seen := map[string]bool{}
	for k := 0; k < 4; k++ {
		bundle, prefetch, session := parseAccept(c.accept)
		if !bundle || prefetch != 250 || len(session) != 16 || strings.Trim(session, "0123456789abcdef") != "" || seen[session] {
			t.Fatalf("session %d states %q", k, c.accept)
		}
		seen[session] = true
		c.EndSession()
	}
	if plain := NewClient("http://origin", ClientConfig{}); plain.accept != "" {
		t.Errorf("a client that takes no bundles states %q", plain.accept)
	}
	if key := sessionKey(""); key != 0 {
		t.Errorf("no session has key %d", key)
	}
}
