package httpspec

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specweb/internal/leakcheck"
	"specweb/internal/obs"
	"specweb/internal/resilience"
)

// fastRetry keeps retried tests quick and deterministic.
func fastRetry(attempts int) resilience.RetryConfig {
	return resilience.RetryConfig{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0,
	}
}

func TestProxyPartialDisseminate(t *testing.T) {
	leakcheck.Check(t)
	// An origin whose replica list names two documents, one of which
	// always fails to pull: the refresh must apply the good one instead
	// of discarding the whole set.
	mux := http.NewServeMux()
	mux.HandleFunc("/spec/replicas", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]string{"/good", "/bad"})
	})
	mux.HandleFunc("/good", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "good document body")
	})
	mux.HandleFunc("/bad", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	origin := httptest.NewServer(mux)
	defer origin.Close()

	reg := obs.NewRegistry()
	proxy := NewProxyWith(origin.URL, ProxyConfig{
		Retry:   fastRetry(2),
		Metrics: reg,
	})
	n, err := proxy.Disseminate(context.Background(), 1<<20)
	if err == nil {
		t.Fatal("partial refresh reported no error")
	}
	if n != 1 {
		t.Fatalf("applied %d documents, want 1", n)
	}
	if !strings.Contains(err.Error(), "partial refresh") {
		t.Errorf("error does not describe the partial refresh: %v", err)
	}
	if got := reg.Counter("specweb_proxy_partial_disseminations_total", "", nil).Value(); got != 1 {
		t.Errorf("partial_disseminations_total = %d, want 1", got)
	}

	// The applied document serves as a replica hit.
	pts := httptest.NewServer(proxy)
	defer pts.Close()
	resp, err := http.Get(pts.URL + "/good")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Served-By") != "specweb-proxy" || string(body) != "good document body" {
		t.Errorf("replica hit not served: served-by=%q body=%q",
			resp.Header.Get("X-Served-By"), body)
	}
}

func TestProxyServesStaleWhenOriginDown(t *testing.T) {
	leakcheck.Check(t)
	// Phase 1: the origin advertises /doc and the proxy replicates it.
	// Phase 2: the replica list empties, superseding /doc into the stale
	// store. Then the origin dies, and a GET /doc must degrade to the
	// stale copy instead of 502ing.
	var empty atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/spec/replicas", func(w http.ResponseWriter, r *http.Request) {
		if empty.Load() {
			io.WriteString(w, "[]")
			return
		}
		json.NewEncoder(w).Encode([]string{"/doc"})
	})
	mux.HandleFunc("/doc", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "replicated once upon a time")
	})
	origin := httptest.NewServer(mux)

	reg := obs.NewRegistry()
	proxy := NewProxyWith(origin.URL, ProxyConfig{
		Retry:   fastRetry(2),
		Metrics: reg,
	})
	if n, err := proxy.Disseminate(context.Background(), 1<<20); err != nil || n != 1 {
		t.Fatalf("first disseminate: n=%d err=%v", n, err)
	}
	empty.Store(true)
	if n, err := proxy.Disseminate(context.Background(), 1<<20); err != nil || n != 0 {
		t.Fatalf("second disseminate: n=%d err=%v", n, err)
	}
	if st := proxy.Stats(); st.Replicas != 0 || st.StaleDocs != 1 {
		t.Fatalf("stats after supersede: %+v", st)
	}

	origin.Close()
	pts := httptest.NewServer(proxy)
	defer pts.Close()

	resp, err := http.Get(pts.URL + "/doc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale serve status = %d", resp.StatusCode)
	}
	if string(body) != "replicated once upon a time" {
		t.Errorf("stale body = %q", body)
	}
	if resp.Header.Get(HeaderStale) != "1" {
		t.Error("stale response not marked with " + HeaderStale)
	}
	if w := resp.Header.Get("Warning"); !strings.Contains(w, "110") {
		t.Errorf("Warning header = %q, want a 110", w)
	}
	if st := proxy.Stats(); st.StaleServes != 1 {
		t.Errorf("StaleServes = %d, want 1", st.StaleServes)
	}
	if got := reg.Counter("specweb_proxy_stale_serves_total", "", nil).Value(); got != 1 {
		t.Errorf("stale_serves_total = %d, want 1", got)
	}
	if got := reg.Counter("specweb_proxy_origin_errors_total", "", nil).Value(); got == 0 {
		t.Error("origin_errors_total not incremented by the dead origin")
	}

	// A path that never had a replica still fails: 502 while the circuit
	// holds, 503 once the accumulated connection refusals trip it.
	resp, err = http.Get(pts.URL + "/never-replicated")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unreplicated path status = %d, want 502 or 503", resp.StatusCode)
	}
}

func TestProxyBreakerOpensAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	// Deterministic clock: the test steps through the breaker cool-down.
	var mu sync.Mutex
	now := time.Date(1995, time.July, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	var failing atomic.Bool
	var originHits atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		originHits.Add(1)
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok")
	}))
	defer origin.Close()

	reg := obs.NewRegistry()
	proxy := NewProxyWith(origin.URL, ProxyConfig{
		Retry: resilience.RetryConfig{MaxAttempts: 1}, // isolate the breaker
		Breaker: resilience.BreakerConfig{
			Window:      8,
			MinSamples:  2,
			FailureRate: 0.5,
			OpenFor:     time.Second,
			Clock:       clock,
		},
		DisableServeStale: true,
		Metrics:           reg,
	})
	pts := httptest.NewServer(proxy)
	defer pts.Close()

	get := func() int {
		t.Helper()
		resp, err := http.Get(pts.URL + "/x")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Two 5xx forwards trip the circuit (MinSamples 2, rate 1.0). The
	// origin's answer is still relayed while the circuit is closed.
	failing.Store(true)
	for i := 0; i < 2; i++ {
		if code := get(); code != http.StatusInternalServerError {
			t.Fatalf("forward %d status = %d, want 500", i, code)
		}
	}
	if st := proxy.Breaker().State(); st != resilience.Open {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// While open, requests are rejected without touching the origin.
	seen := originHits.Load()
	for i := 0; i < 3; i++ {
		if code := get(); code != http.StatusServiceUnavailable {
			t.Fatalf("open-circuit status = %d, want 503", code)
		}
	}
	if originHits.Load() != seen {
		t.Errorf("origin saw %d requests while the circuit was open",
			originHits.Load()-seen)
	}

	// After the cool-down a half-open probe goes through; the recovered
	// origin closes the circuit again.
	failing.Store(false)
	advance(2 * time.Second)
	if code := get(); code != http.StatusOK {
		t.Fatalf("probe status = %d, want 200", code)
	}
	if st := proxy.Breaker().State(); st != resilience.Closed {
		t.Fatalf("breaker state after probe = %v, want closed", st)
	}
	if code := get(); code != http.StatusOK {
		t.Errorf("post-recovery status = %d, want 200", code)
	}
	if bs := proxy.Breaker().Stats(); bs.Opens != 1 || bs.Rejected == 0 {
		t.Errorf("breaker stats = %+v", bs)
	}
	if got := reg.Counter("specweb_breaker_transitions_total", "",
		obs.Labels{"breaker": origin.URL, "to": "open"}).Value(); got != 1 {
		t.Errorf("transitions to open = %d, want 1", got)
	}
}

// headerRecordingTransport hands the proxy a handcrafted response full of
// hop-by-hop headers and records what the proxy actually sent, so both
// stripping directions are observable without real network behaviour in
// the way.
type headerRecordingTransport struct {
	mu   sync.Mutex
	sent http.Header
}

func (t *headerRecordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.sent = req.Header.Clone()
	t.mu.Unlock()
	h := http.Header{}
	h.Set("Content-Type", "text/plain")
	h.Set("Keep-Alive", "timeout=5")
	h.Set("Connection", "X-Origin-Secret")
	h.Set("X-Origin-Secret", "internal")
	h.Set("X-Public", "yes")
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader("body")),
		Request:    req,
	}, nil
}

func TestProxyStripsHopByHopHeaders(t *testing.T) {
	rt := &headerRecordingTransport{}
	proxy := NewProxyWith("http://origin.example", ProxyConfig{
		HTTP:    &http.Client{Transport: rt},
		Retry:   resilience.RetryConfig{MaxAttempts: 1},
		Metrics: obs.NewRegistry(),
	})

	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.URL = &url.URL{Path: "/x"}
	req.Header.Set("Connection", "X-Client-Secret, Keep-Alive")
	req.Header.Set("X-Client-Secret", "hop")
	req.Header.Set("Keep-Alive", "timeout=9")
	req.Header.Set("Proxy-Connection", "keep-alive")
	req.Header.Set("Te", "trailers")
	req.Header.Set("X-Forward-Me", "yes")
	rec := httptest.NewRecorder()
	proxy.ServeHTTP(rec, req)

	for _, name := range []string{"Connection", "X-Client-Secret", "Keep-Alive", "Proxy-Connection", "Te"} {
		if v := rt.sent.Get(name); v != "" {
			t.Errorf("hop-by-hop request header %s=%q reached the origin", name, v)
		}
	}
	if rt.sent.Get("X-Forward-Me") != "yes" {
		t.Error("end-to-end request header was stripped")
	}

	resp := rec.Result()
	for _, name := range []string{"Connection", "Keep-Alive", "X-Origin-Secret"} {
		if v := resp.Header.Get(name); v != "" {
			t.Errorf("hop-by-hop response header %s=%q reached the client", name, v)
		}
	}
	if resp.Header.Get("X-Public") != "yes" {
		t.Error("end-to-end response header was stripped")
	}
}

func TestStripHopByHop(t *testing.T) {
	h := http.Header{}
	h.Set("Connection", "x-a, x-b")
	h.Set("X-A", "1")
	h.Set("X-B", "2")
	h.Set("X-C", "3")
	h.Set("Transfer-Encoding", "chunked")
	h.Set("Upgrade", "websocket")
	stripHopByHop(h)
	for _, gone := range []string{"Connection", "X-A", "X-B", "Transfer-Encoding", "Upgrade"} {
		if h.Get(gone) != "" {
			t.Errorf("%s survived stripping", gone)
		}
	}
	if h.Get("X-C") != "3" {
		t.Error("unrelated header stripped")
	}
}

func TestClientCountsStaleServes(t *testing.T) {
	leakcheck.Check(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderStale, "1")
		io.WriteString(w, "stale body")
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientConfig{ID: "stale-counter"})
	if _, _, err := c.Get("/x"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().StaleServes; got != 1 {
		t.Errorf("StaleServes = %d, want 1", got)
	}
}

func TestClientRetriesThroughFaults(t *testing.T) {
	leakcheck.Check(t)
	// A flaky origin that 500s on every odd request to /a: with retries
	// the client's Get still succeeds, and the retry count is visible.
	var calls, total atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		total.Add(1)
		if r.URL.Path != "/a" {
			http.NotFound(w, r)
			return
		}
		if calls.Add(1)%2 == 1 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "document %s", r.URL.Path)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientConfig{ID: "retrier", Retry: fastRetry(3)})
	body, fromCache, err := c.Get("/a")
	if err != nil {
		t.Fatal(err)
	}
	if fromCache || string(body) != "document /a" {
		t.Errorf("got %q (cache %v)", body, fromCache)
	}
	if got := c.Stats().Retries; got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}

	// A 404 is permanent: no retry is spent on it.
	before := total.Load()
	nf := NewClient(srv.URL, ClientConfig{Retry: fastRetry(3)})
	if _, _, err := nf.Get("/nope"); err == nil {
		t.Error("404 did not surface")
	}
	if attempts := total.Load() - before; attempts != 1 {
		t.Errorf("permanent 404 consumed %d attempts, want 1", attempts)
	}
}
