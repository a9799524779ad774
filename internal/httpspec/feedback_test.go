package httpspec

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"specweb/internal/attrib"
	"specweb/internal/obs"
	"specweb/internal/resilience/faults"
)

// tokenTap counts the fetches that carried Spec-Attrib tokens and came back
// without the origin's answer.
type tokenTap struct {
	next http.RoundTripper
	lost int
}

func (l *tokenTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.next.RoundTrip(req)
	if req.Header.Get(HeaderAttrib) != "" && (err != nil || resp.StatusCode != http.StatusOK) {
		l.lost++
	}
	return resp, err
}

// TestFailedFetchKeepsItsTokens: a demand fetch that fails for good hands
// its Spec-Attrib tokens back to the queue, so over a lossy link every
// report still arrives. The injector drops requests before they reach the
// origin (connection errors, synthetic 500s), so what arrives, arrives once:
// when the run has drained, the server has resolved exactly the prefetches
// the client has, and holds no offer.
func TestFailedFetchKeepsItsTokens(t *testing.T) {
	srvLed := attrib.NewLedger(64, obs.NewRegistry())
	cliLed := attrib.NewLedger(64, obs.NewRegistry())
	w, page, succ := hintedWorld(t, ModeHints, 6, func(cfg *ServerConfig) { cfg.Attrib = srvLed })
	other := unhinted(t, w.site, page, succ)

	inj := faults.New(faults.Config{Seed: 11, ErrorRate: 0.35, Rate5xx: 0.15, Metrics: obs.NewRegistry()})
	tap := &tokenTap{next: inj.Transport(nil)}
	c := NewClient(w.ts.URL, ClientConfig{
		ID: "lossy", PrefetchThreshold: 0.3, Attrib: cliLed,
		HTTP: &http.Client{Transport: tap}, Retry: fastRetry(2),
	})
	failed := 0
	get := func(path string) {
		if _, _, err := c.Get(path); err != nil {
			failed++
		}
	}
	for round := 0; round < 40; round++ {
		get(page.Path)
		for _, d := range succ[:round%4] {
			get(d.Path) // a hit when its prefetch got through, else a fetch
		}
		c.EndSession()
	}
	if failed == 0 || tap.lost == 0 {
		t.Fatalf("%d fetches failed for good, %d attempts lost tokens: the run tests nothing", failed, tap.lost)
	}
	// Drain: the last session's reports, and whatever failures put back.
	c.ResolveOutstanding()
	for try := 0; ; try++ {
		c.mu.Lock()
		owed := len(c.pending)
		c.mu.Unlock()
		if owed == 0 {
			break
		}
		if try == 100 {
			t.Fatalf("%d tokens still queued after %d fetches", owed, try)
		}
		get(other.Path)
		c.EndSession()
	}
	cli, srv := cliLed.Report(0).Classes[attrib.ClassPrefetch], srvLed.Report(0).Classes[attrib.ClassPrefetch]
	if cli.Consumed == 0 || cli.Wasted == 0 {
		t.Fatalf("client ledger %+v: the run tests nothing", cli)
	}
	if srv != cli {
		t.Errorf("prefetch class differs after the drain:\nserver %+v\nclient %+v", srv, cli)
	}
	if st := w.server.Engine().Stats(); st.OffersOutstanding != 0 || st.OffersExpired != 0 {
		t.Errorf("offers left at the server: %+v", st)
	}
}

// TestOwedReportDefersReprefetch: reports leave in path order, 32 a fetch.
// While the report on a document's last prefetch is still queued behind
// others, a hint for that document is not followed — the server keeps one
// offer per client and document, and the old report would settle the new
// one — and it is followed again once the report has gone.
func TestOwedReportDefersReprefetch(t *testing.T) {
	const many = 40
	var carried []string // Spec-Attrib of each demand request
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderPrefetch) == "" {
			carried = append(carried, r.Header.Get(HeaderAttrib))
			hinted := []int{0, many - 1}
			if r.URL.Path == "/many" {
				hinted = hinted[:0]
				for i := many - 1; i >= 0; i-- { // hinted last first: the queue is not in hint order
					hinted = append(hinted, i)
				}
			}
			for _, i := range hinted {
				w.Header().Add("Link", fmt.Sprintf(`</d%02d>; rel="prefetch"; spec-p=0.9`, i))
			}
		}
		_, _ = w.Write([]byte("body"))
	}))
	defer ts.Close()
	c := NewClient(ts.URL, ClientConfig{ID: "u", PrefetchThreshold: 0.3})
	get := func(path string) {
		t.Helper()
		if _, _, err := c.Get(path); err != nil {
			t.Fatal(err)
		}
	}
	get("/many")
	if st := c.Stats(); st.Prefetched != many {
		t.Fatalf("prefetched %d of %d", st.Prefetched, many)
	}
	c.EndSession() // none was used: forty reports owed

	get("/first")
	first := strings.Fields(carried[len(carried)-1])
	if len(first) != 32 || first[0] != "w:prefetch:/d00" || first[31] != "w:prefetch:/d31" {
		t.Fatalf("first fetch carried %d tokens, %q", len(first), first)
	}
	if !c.Cached("/d00") {
		t.Error("/d00, whose report has gone, was not prefetched again")
	}
	if c.Cached(fmt.Sprintf("/d%02d", many-1)) {
		t.Error("the last document was prefetched again while its report is still queued")
	}

	get("/second")
	second := strings.Fields(carried[len(carried)-1])
	if len(second) != many-32 || second[len(second)-1] != fmt.Sprintf("w:prefetch:/d%02d", many-1) {
		t.Fatalf("second fetch carried %q", second)
	}
	if !c.Cached(fmt.Sprintf("/d%02d", many-1)) {
		t.Error("the last document was not prefetched once its report had gone")
	}
}
