package httpspec

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"specweb/internal/attrib"
	"specweb/internal/core"
	"specweb/internal/obs"
)

// findSpan returns the first recorded span with the given name.
func findSpan(t *testing.T, tr *obs.Tracer, name string) obs.Span {
	t.Helper()
	for _, s := range tr.Recent() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no span named %q (have %v)", name, spanNames(tr))
	return obs.Span{}
}

func spanNames(tr *obs.Tracer) []string {
	var names []string
	for _, s := range tr.Recent() {
		names = append(names, s.Name)
	}
	return names
}

// TestTraceSpansClientProxyServer proves the tentpole claim: one demand
// fetch produces a single trace ID visible in three separate processes'
// tracers (client, proxy, origin), with the parent chain intact across
// both network hops.
func TestTraceSpansClientProxyServer(t *testing.T) {
	serverTr := obs.NewTracer(64)
	w := newWorldCfg(t, ModePush, func(cfg *ServerConfig) {
		cfg.Tracer = serverTr
		cfg.Metrics = obs.NewRegistry()
	})
	proxyTr := obs.NewTracer(64)
	p := NewProxyWith(w.ts.URL, ProxyConfig{
		Tracer:  proxyTr,
		Metrics: obs.NewRegistry(),
	})
	pts := httptest.NewServer(p)
	defer pts.Close()

	clientTr := obs.NewTracer(64)
	c := NewClient(pts.URL, ClientConfig{ID: "tracing", Tracer: clientTr})
	doc := &w.site.Docs[0]
	if _, _, err := c.Get(doc.Path); err != nil {
		t.Fatal(err)
	}
	// Get returns once the body is read; the handlers' deferred Finish may
	// still be pending. Close waits for them (and is safe to repeat).
	pts.Close()
	w.ts.Close()

	cs := findSpan(t, clientTr, "client.get")
	ps := findSpan(t, proxyTr, "proxy.request")
	ss := findSpan(t, serverTr, "server.request")
	if cs.Trace == "" {
		t.Fatal("client span has empty trace ID")
	}
	if ps.Trace != cs.Trace || ss.Trace != cs.Trace {
		t.Fatalf("trace IDs differ across hops: client=%s proxy=%s server=%s",
			cs.Trace, ps.Trace, ss.Trace)
	}
	if cs.Parent != 0 {
		t.Errorf("client span should be the root, parent = %#x", uint64(cs.Parent))
	}
	if ps.Parent != cs.ID {
		t.Errorf("proxy span parent = %#x, want client span %#x", uint64(ps.Parent), uint64(cs.ID))
	}
	if ss.Parent != ps.ID {
		t.Errorf("server span parent = %#x, want proxy span %#x", uint64(ss.Parent), uint64(ps.ID))
	}
	// All three spans must be distinct — a shared trace, not a shared span.
	if cs.ID == ps.ID || ps.ID == ss.ID || cs.ID == ss.ID {
		t.Errorf("span IDs collide: client=%#x proxy=%#x server=%#x",
			uint64(cs.ID), uint64(ps.ID), uint64(ss.ID))
	}
}

// TestAttribPushEndToEnd walks one push delivery through its whole
// attribution life cycle: the server records the bundle parts it pushes,
// the client records them on arrival, a demand hit resolves one as
// consumed, ResolveOutstanding drains the rest as wasted, and the
// Spec-Attrib feedback header carries every resolution back to the
// server's ledger.
func TestAttribPushEndToEnd(t *testing.T) {
	srvLed := attrib.NewLedger(64, obs.NewRegistry())
	w := newWorldCfg(t, ModePush, func(cfg *ServerConfig) {
		cfg.Attrib = srvLed
		cfg.Metrics = obs.NewRegistry()
	})
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 3)

	cliLed := attrib.NewLedger(64, obs.NewRegistry())
	c := NewClient(w.ts.URL, ClientConfig{
		ID:             "attrib",
		AcceptBundles:  true,
		Attrib:         cliLed,
		AttribFeedback: true,
	})
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}

	cli := cliLed.Report(10)
	if cli.Totals.Deliveries == 0 {
		t.Fatal("client ledger saw no push deliveries; bundle not pushed?")
	}
	srv := srvLed.Report(10)
	if srv.Totals.Deliveries != cli.Totals.Deliveries {
		t.Errorf("server recorded %d deliveries, client %d",
			srv.Totals.Deliveries, cli.Totals.Deliveries)
	}
	if srv.Totals.DeliveredBytes != cli.Totals.DeliveredBytes {
		t.Errorf("server delivered %d bytes, client received %d",
			srv.Totals.DeliveredBytes, cli.Totals.DeliveredBytes)
	}
	if got := cli.Classes[attrib.ClassPush].Deliveries; got != cli.Totals.Deliveries {
		t.Errorf("push class deliveries = %d, want all %d", got, cli.Totals.Deliveries)
	}
	if cli.Totals.PMilliSum <= 0 {
		t.Errorf("push deliveries carried no probabilities (PMilliSum=%d)", cli.Totals.PMilliSum)
	}

	// Demand the first pushed doc: a manufactured hit, resolved consumed.
	hit := w.site.Doc(page.Embedded[0]).Path
	if _, fromCache, err := c.Get(hit); err != nil || !fromCache {
		t.Fatalf("Get(%s) fromCache=%v err=%v, want cache hit", hit, fromCache, err)
	}
	// Everything else was speculated for nothing.
	c.ResolveOutstanding()

	cli = cliLed.Report(10)
	if cli.Totals.Consumed != 1 {
		t.Errorf("consumed = %d, want 1", cli.Totals.Consumed)
	}
	if cli.Totals.Wasted != cli.Totals.Deliveries-1 {
		t.Errorf("wasted = %d, want %d", cli.Totals.Wasted, cli.Totals.Deliveries-1)
	}
	if cli.Outstanding != 0 {
		t.Errorf("outstanding = %d after ResolveOutstanding, want 0", cli.Outstanding)
	}
	if cli.Totals.ConsumedBytes+cli.Totals.WastedBytes != cli.Totals.DeliveredBytes {
		t.Errorf("consumed %d + wasted %d bytes != delivered %d",
			cli.Totals.ConsumedBytes, cli.Totals.WastedBytes, cli.Totals.DeliveredBytes)
	}

	// The next demand miss piggybacks the resolution tokens; the server's
	// ledger converges to the client's view of the same deliveries.
	var uncached string
	for i := range w.site.Docs {
		if p := w.site.Docs[i].Path; !c.Cached(p) {
			uncached = p
			break
		}
	}
	if uncached == "" {
		t.Fatal("every document cached; cannot carry feedback")
	}
	if _, _, err := c.Get(uncached); err != nil {
		t.Fatal(err)
	}
	srv = srvLed.Report(10)
	if srv.Totals.Consumed != cli.Totals.Consumed || srv.Totals.Wasted != cli.Totals.Wasted {
		t.Errorf("server ledger consumed/wasted = %d/%d, want %d/%d from feedback",
			srv.Totals.Consumed, srv.Totals.Wasted, cli.Totals.Consumed, cli.Totals.Wasted)
	}
	if srv.Outstanding != 0 {
		t.Errorf("server outstanding = %d after feedback, want 0", srv.Outstanding)
	}
}

// TestAttribPrefetch covers the hint arm: the client attributes each
// hint-driven prefetch with the hint's probability, and the Spec-Prefetch
// header lets the origin record the same delivery on its side.
func TestAttribPrefetch(t *testing.T) {
	srvLed := attrib.NewLedger(64, obs.NewRegistry())
	w := newWorldCfg(t, ModeHints, func(cfg *ServerConfig) {
		cfg.Attrib = srvLed
		cfg.Metrics = obs.NewRegistry()
	})
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 3)

	cliLed := attrib.NewLedger(64, obs.NewRegistry())
	c := NewClient(w.ts.URL, ClientConfig{
		ID:                "hinted",
		PrefetchThreshold: 0.05,
		Attrib:            cliLed,
	})
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Prefetched == 0 {
		t.Fatal("no prefetches followed; hints missing?")
	}

	cli := cliLed.Report(10)
	pf := cli.Classes[attrib.ClassPrefetch]
	if pf.Deliveries != c.Stats().Prefetched {
		t.Errorf("prefetch deliveries = %d, want %d", pf.Deliveries, c.Stats().Prefetched)
	}
	if pf.PMilliSum <= 0 {
		t.Errorf("prefetch deliveries carried no probabilities (PMilliSum=%d)", pf.PMilliSum)
	}
	spf := srvLed.Report(10).Classes[attrib.ClassPrefetch]
	if spf.Deliveries != pf.Deliveries || spf.DeliveredBytes != pf.DeliveredBytes {
		t.Errorf("server prefetch ledger %d/%dB, client %d/%dB",
			spf.Deliveries, spf.DeliveredBytes, pf.Deliveries, pf.DeliveredBytes)
	}
	if spf.PMilliSum != pf.PMilliSum {
		t.Errorf("server PMilliSum %d != client %d", spf.PMilliSum, pf.PMilliSum)
	}

	// The prefetched doc consumed on demand hit.
	hit := w.site.Doc(page.Embedded[0]).Path
	if _, fromCache, err := c.Get(hit); err != nil || !fromCache {
		t.Fatalf("Get(%s) fromCache=%v err=%v, want prefetch hit", hit, fromCache, err)
	}
	if got := cliLed.Report(10).Totals.Consumed; got != 1 {
		t.Errorf("consumed = %d after demand hit, want 1", got)
	}

	// Nobody asked this client for feedback (AttribFeedback is off); it
	// reports on its prefetches all the same, because that is what the
	// server's estimator learns from. Once the leftovers are resolved and
	// a fetch has carried the tokens, /spec/stats shows the server's
	// calibration table equal to the client's and no offer outstanding.
	c.ResolveOutstanding()
	var carrier string
	for i := len(w.site.Docs) - 1; i >= 0 && carrier == ""; i-- {
		if d := &w.site.Docs[i]; !c.Cached(d.Path) && !slices.Contains(page.Embedded, d.ID) {
			carrier = d.Path // untrained: its answer brings no hints, so no new offers
		}
	}
	if _, _, err := c.Get(carrier); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(w.ts.URL + "/spec/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Engine core.Stats
		Attrib *attrib.Report
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	want := cliLed.Report(0).Calibration[attrib.ClassPrefetch]
	if got := st.Attrib.Calibration[attrib.ClassPrefetch]; got != want || got == (attrib.Calibration{}) {
		t.Errorf("/spec/stats prefetch calibration\n got %v\nwant %v", got, want)
	}
	if st.Engine.OffersOutstanding != 0 || st.Engine.Recorded == 0 {
		t.Errorf("/spec/stats engine %+v: want every offer settled", st.Engine)
	}
}

// TestAttribReplica covers the dissemination arm: replicas pulled by the
// proxy are recorded as deliveries and resolve consumed only when they
// served a hit.
func TestAttribReplica(t *testing.T) {
	w := newWorldCfg(t, ModePush, func(cfg *ServerConfig) {
		cfg.Metrics = obs.NewRegistry()
	})
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 3)

	led := attrib.NewLedger(64, obs.NewRegistry())
	p := NewProxyWith(w.ts.URL, ProxyConfig{
		Metrics: obs.NewRegistry(),
		Attrib:  led,
	})
	n, err := p.Disseminate(t.Context(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no replicas disseminated")
	}
	rep := led.Report(10)
	repl := rep.Classes[attrib.ClassReplica]
	if repl.Deliveries != int64(n) {
		t.Errorf("replica deliveries = %d, want %d", repl.Deliveries, n)
	}

	pts := httptest.NewServer(p)
	defer pts.Close()
	c := NewClient(pts.URL, ClientConfig{ID: "replica-hit"})
	if _, _, err := c.Get(page.Path); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Hits == 0 {
		t.Skip("trained page not in replica set; nothing to consume")
	}

	p.FlushAttrib()
	rep = led.Report(10)
	repl = rep.Classes[attrib.ClassReplica]
	if repl.Consumed == 0 {
		t.Error("replica hit not resolved consumed after FlushAttrib")
	}
	if repl.Consumed+repl.Wasted != repl.Deliveries {
		t.Errorf("consumed %d + wasted %d != deliveries %d",
			repl.Consumed, repl.Wasted, repl.Deliveries)
	}
	if rep.Outstanding != 0 {
		t.Errorf("outstanding = %d after FlushAttrib, want 0", rep.Outstanding)
	}
}
