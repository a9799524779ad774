package httpspec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience"
)

// Proxy is a dissemination service proxy (§2): it holds replicas of a home
// server's most popular documents and fronts the server, serving replica
// hits locally and forwarding everything else. In the paper's vision these
// are rentable "information outlets" placed near consumers — which only
// works if the proxy stays useful while the home server flaps. Forwards
// and replica pulls are retried with jittered backoff behind a per-origin
// circuit breaker, replica refreshes apply partially instead of
// all-or-nothing, and when the origin is unreachable the proxy degrades
// to serving superseded ("stale") replicas rather than failing — the
// paper's proxy-as-availability argument made concrete.
type Proxy struct {
	origin  string
	http    *http.Client
	cfg     ProxyConfig
	retrier *resilience.Retrier
	breaker *resilience.Breaker
	met     *proxyMetrics
	tracer  *obs.Tracer
	log     *slog.Logger

	mu         sync.RWMutex
	replicas   map[string]*replica
	stale      map[string][]byte // superseded replicas kept for degraded service
	staleBytes int64

	hits        atomic.Int64
	misses      atomic.Int64
	hitB        atomic.Int64
	forward     atomic.Int64
	staleServes atomic.Int64
	shed        atomic.Int64
}

// replica is one disseminated document. hit is flipped by the read path
// under the read lock (it is atomic precisely so hits never need the
// write lock); resolved guards the attribution so each dissemination
// resolves exactly once.
type replica struct {
	body     []byte
	hit      atomic.Bool
	resolved atomic.Bool
}

// ProxyConfig parameterizes the proxy's resilience behaviour. The zero
// value gives sane production defaults; NewProxy uses it.
type ProxyConfig struct {
	// HTTP is the origin-facing client; nil means http.DefaultClient.
	HTTP *http.Client
	// Retry shapes forward/pull retries; a zero value (MaxAttempts 0)
	// takes resilience.DefaultRetryConfig. Set MaxAttempts to 1 to
	// disable retries.
	Retry resilience.RetryConfig
	// Breaker shapes the per-origin circuit; zero fields take
	// resilience.DefaultBreakerConfig.
	Breaker resilience.BreakerConfig
	// ForwardTimeout bounds each forwarded request (default 30s);
	// PullTimeout bounds each replica pull (default 30s). A caller
	// deadline that is already tighter wins.
	ForwardTimeout time.Duration
	PullTimeout    time.Duration
	// DisableServeStale turns off the degraded-mode stale replica
	// service, restoring plain 502s on origin failure.
	DisableServeStale bool
	// MaxStaleBytes caps the stale store (default 64 MiB); overflow
	// evicts arbitrary entries.
	MaxStaleBytes int64
	// Admission optionally rate-controls the proxy itself: forwards
	// admit as Demand (replica hits are memory reads and stay free),
	// replica pulls and refreshes admit as Speculative — under load the
	// proxy stops creating background transfer work before it refuses
	// any client. nil disables admission.
	Admission *overload.Controller
	// Metrics selects the registry; nil means obs.Default.
	Metrics *obs.Registry
	// Tracer records spans; nil means obs.DefaultTracer.
	Tracer *obs.Tracer
	// Attrib, when non-nil, records every replica pulled as a
	// speculative delivery and resolves it — consumed if it served at
	// least one hit, wasted otherwise — when the replica set is retired
	// (or on FlushAttrib).
	Attrib *attrib.Ledger
}

// proxyMetrics aggregate over every proxy instance in the process (the
// snapshot-style ProxyStats stays per instance).
type proxyMetrics struct {
	hits           *obs.Counter
	misses         *obs.Counter
	hitBytes       *obs.Counter
	originErrors   *obs.Counter
	staleServes    *obs.Counter
	shed           *obs.Counter
	disseminations *obs.Counter
	partials       *obs.Counter
	replicas       *obs.Gauge
	replicaBytes   *obs.Gauge
	staleDocs      *obs.Gauge
	staleBytesG    *obs.Gauge
}

func newProxyMetrics(reg *obs.Registry) *proxyMetrics {
	const requests = "specweb_proxy_requests_total"
	const requestsHelp = "Requests handled by the dissemination proxy, by outcome."
	return &proxyMetrics{
		hits:           reg.Counter(requests, requestsHelp, obs.Labels{"result": "hit"}),
		misses:         reg.Counter(requests, requestsHelp, obs.Labels{"result": "miss"}),
		hitBytes:       reg.Counter("specweb_proxy_hit_bytes_total", "Bytes served from local replicas.", nil),
		originErrors:   reg.Counter("specweb_proxy_origin_errors_total", "Failed forwards and replica pulls against the origin (per attempt).", nil),
		staleServes:    reg.Counter("specweb_proxy_stale_serves_total", "Requests served from superseded replicas while the origin was unreachable.", nil),
		shed:           reg.Counter("specweb_proxy_shed_total", "Forwards refused by the proxy's admission controller.", nil),
		disseminations: reg.Counter("specweb_proxy_disseminations_total", "Replica-set refreshes pulled from the origin.", nil),
		partials:       reg.Counter("specweb_proxy_partial_disseminations_total", "Replica-set refreshes applied partially after pull failures.", nil),
		replicas:       reg.Gauge("specweb_proxy_replicas", "Documents currently replicated at the proxy.", nil),
		replicaBytes:   reg.Gauge("specweb_proxy_replica_bytes", "Bytes currently replicated at the proxy.", nil),
		staleDocs:      reg.Gauge("specweb_proxy_stale_docs", "Superseded replicas retained for degraded service.", nil),
		staleBytesG:    reg.Gauge("specweb_proxy_stale_bytes", "Bytes retained in the stale store.", nil),
	}
}

// NewProxy fronts the origin server (base URL) with default resilience,
// registering metrics in the process-wide obs.Default.
func NewProxy(origin string, client *http.Client) *Proxy {
	return NewProxyWith(origin, ProxyConfig{HTTP: client})
}

// NewProxyWith fronts the origin with explicit resilience configuration.
func NewProxyWith(origin string, cfg ProxyConfig) *Proxy {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = resilience.DefaultRetryConfig()
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if cfg.PullTimeout <= 0 {
		cfg.PullTimeout = 30 * time.Second
	}
	if cfg.MaxStaleBytes <= 0 {
		cfg.MaxStaleBytes = 64 << 20
	}
	bcfg := cfg.Breaker
	if bcfg.Name == "" {
		bcfg.Name = origin
	}
	if bcfg.Metrics == nil {
		bcfg.Metrics = cfg.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer
	}
	return &Proxy{
		origin:   origin,
		http:     cfg.HTTP,
		cfg:      cfg,
		retrier:  resilience.NewRetrierIn(cfg.Metrics, cfg.Retry),
		breaker:  resilience.NewBreaker(bcfg),
		met:      newProxyMetrics(cfg.Metrics),
		tracer:   cfg.Tracer,
		log:      obs.Logger("proxy"),
		replicas: make(map[string]*replica),
		stale:    make(map[string][]byte),
	}
}

// Breaker exposes the origin circuit (for stats and tests).
func (p *Proxy) Breaker() *resilience.Breaker { return p.breaker }

// Disseminate asks the origin which documents deserve replication within
// the byte budget (the origin's Replicator decides, per §2's server-driven
// model) and pulls them. The refresh is best-effort: documents that pull
// successfully are applied even when others fail, so one flaky transfer
// no longer discards a whole refresh. It returns the number of documents
// applied; a non-nil error alongside a positive count means a partial
// refresh. The superseded replica set is retained for stale service.
func (p *Proxy) Disseminate(ctx context.Context, budget int64) (int, error) {
	sp := p.tracer.Start("proxy.disseminate")
	defer sp.Finish()

	// A refresh is pure speculative-class work: when the admission
	// controller is saturated it is the first thing to go, surfacing as
	// an ordinary refresh failure (full or partial) to the caller.
	if p.cfg.Admission != nil {
		release, err := p.cfg.Admission.Acquire(ctx, overload.Speculative)
		if err != nil {
			sp.SetAttr("result", "shed")
			return 0, fmt.Errorf("httpspec: replica refresh shed by admission: %w", err)
		}
		defer release()
	}

	paths, err := p.fetchReplicaList(ctx, sp, budget)
	if err != nil {
		return 0, err
	}

	fresh := make(map[string]*replica, len(paths))
	var freshBytes int64
	var pullErrs []error
	for _, path := range paths {
		if ctx.Err() != nil {
			pullErrs = append(pullErrs, ctx.Err())
			break
		}
		body, err := p.pull(ctx, sp, path)
		if err != nil {
			pullErrs = append(pullErrs, err)
			continue
		}
		fresh[path] = &replica{body: body}
		p.cfg.Attrib.Delivered(path, attrib.ClassReplica, int64(len(body)), 0, "")
		freshBytes += int64(len(body))
	}

	p.mu.Lock()
	p.retireLocked(p.replicas)
	p.replicas = fresh
	staleDocs, staleBytes := len(p.stale), p.staleBytes
	p.mu.Unlock()

	p.met.disseminations.Inc()
	p.met.replicas.Set(float64(len(fresh)))
	p.met.replicaBytes.Set(float64(freshBytes))
	p.met.staleDocs.Set(float64(staleDocs))
	p.met.staleBytesG.Set(float64(staleBytes))

	if len(pullErrs) > 0 {
		p.met.partials.Inc()
		p.log.Warn("partial replica refresh",
			"applied", len(fresh), "failed", len(pullErrs), "budget", budget)
		return len(fresh), fmt.Errorf("httpspec: partial refresh, %d of %d documents applied: %w",
			len(fresh), len(paths), errors.Join(pullErrs...))
	}
	p.log.Info("replica set refreshed", "docs", len(fresh), "bytes", freshBytes, "budget", budget)
	return len(fresh), nil
}

// fetchReplicaList asks the origin's replicator for the replica paths.
func (p *Proxy) fetchReplicaList(ctx context.Context, sp *obs.ActiveSpan, budget int64) ([]string, error) {
	var paths []string
	err := p.retrier.Do(ctx, func(ctx context.Context) error {
		cctx, cancel := resilience.EnsureDeadline(ctx, p.cfg.PullTimeout)
		defer cancel()
		if err := p.breaker.Allow(); err != nil {
			return resilience.Permanent(err)
		}
		req, err := http.NewRequestWithContext(cctx, http.MethodGet,
			fmt.Sprintf("%s/spec/replicas?budget=%d", p.origin, budget), nil)
		if err != nil {
			p.breaker.Record(nil)
			return resilience.Permanent(err)
		}
		if tp := sp.Traceparent(); tp != "" {
			req.Header.Set(obs.TraceparentHeader, tp)
		}
		resp, err := p.http.Do(req)
		if err != nil {
			p.breaker.Record(err)
			p.met.originErrors.Inc()
			return fmt.Errorf("httpspec: fetching replica list: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ferr := fmt.Errorf("httpspec: replica list: %s", resp.Status)
			p.met.originErrors.Inc()
			if resp.StatusCode >= 500 {
				p.breaker.Record(ferr)
				return ferr
			}
			p.breaker.Record(nil) // the origin answered; our request was bad
			return resilience.Permanent(ferr)
		}
		var got []string
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			p.breaker.Record(err)
			return fmt.Errorf("httpspec: decoding replica list: %w", err)
		}
		p.breaker.Record(nil)
		paths = got
		return nil
	})
	return paths, err
}

// pull fetches one document body from the origin with retries under the
// breaker, continuing the dissemination span's trace.
func (p *Proxy) pull(ctx context.Context, sp *obs.ActiveSpan, path string) ([]byte, error) {
	var body []byte
	err := p.retrier.Do(ctx, func(ctx context.Context) error {
		cctx, cancel := resilience.EnsureDeadline(ctx, p.cfg.PullTimeout)
		defer cancel()
		if err := p.breaker.Allow(); err != nil {
			return resilience.Permanent(err)
		}
		req, err := http.NewRequestWithContext(cctx, http.MethodGet, p.origin+path, nil)
		if err != nil {
			p.breaker.Record(nil)
			return resilience.Permanent(err)
		}
		if tp := sp.Traceparent(); tp != "" {
			req.Header.Set(obs.TraceparentHeader, tp)
		}
		resp, err := p.http.Do(req)
		if err != nil {
			p.breaker.Record(err)
			p.met.originErrors.Inc()
			return fmt.Errorf("httpspec: pulling %s: %w", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			perr := fmt.Errorf("httpspec: pulling %s: %s", path, resp.Status)
			p.met.originErrors.Inc()
			if resp.StatusCode >= 500 {
				p.breaker.Record(perr)
				return perr
			}
			p.breaker.Record(nil)
			return resilience.Permanent(perr)
		}
		b, err := readBody(resp.Body, resp.ContentLength)
		if err != nil {
			p.breaker.Record(err)
			p.met.originErrors.Inc()
			return fmt.Errorf("httpspec: pulling %s: %w", path, err)
		}
		p.breaker.Record(nil)
		body = b
		return nil
	})
	return body, err
}

// retireLocked moves a superseded replica set into the stale store,
// evicting arbitrary entries when over the byte cap, and resolves each
// retired replica's attribution. Callers hold mu.
func (p *Proxy) retireLocked(old map[string]*replica) {
	for path, rep := range old {
		p.resolveReplica(path, rep)
		if prev, ok := p.stale[path]; ok {
			p.staleBytes -= int64(len(prev))
		}
		p.stale[path] = rep.body
		p.staleBytes += int64(len(rep.body))
	}
	for path, body := range p.stale {
		if p.staleBytes <= p.cfg.MaxStaleBytes {
			break
		}
		delete(p.stale, path)
		p.staleBytes -= int64(len(body))
	}
}

// resolveReplica attributes one replica's fate exactly once: consumed if
// it served at least one hit, wasted otherwise.
func (p *Proxy) resolveReplica(path string, rep *replica) {
	if !rep.resolved.CompareAndSwap(false, true) {
		return
	}
	if rep.hit.Load() {
		p.cfg.Attrib.Consumed(path, attrib.ClassReplica, int64(len(rep.body)))
	} else {
		p.cfg.Attrib.Wasted(path, attrib.ClassReplica, int64(len(rep.body)))
	}
}

// FlushAttrib resolves the current replica set's attribution without
// retiring it — for end-of-run reports and graceful shutdown.
func (p *Proxy) FlushAttrib() {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for path, rep := range p.replicas {
		p.resolveReplica(path, rep)
	}
}

// ProxyStats counts proxy activity.
type ProxyStats struct {
	Hits          int64
	Misses        int64
	HitBytes      int64
	ForwardErrors int64
	StaleServes   int64
	Shed          int64
	Replicas      int
	StaleDocs     int
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() ProxyStats {
	p.mu.RLock()
	n := len(p.replicas)
	ns := len(p.stale)
	p.mu.RUnlock()
	return ProxyStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		HitBytes:      p.hitB.Load(),
		ForwardErrors: p.forward.Load(),
		StaleServes:   p.staleServes.Load(),
		Shed:          p.shed.Load(),
		Replicas:      n,
		StaleDocs:     ns,
	}
}

// hopByHop are the header fields a proxy must not forward (RFC 7230 §6.1
// plus the de-facto Proxy-Connection).
var hopByHop = [...]string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// stripHopByHop removes hop-by-hop fields, including any named by the
// Connection header, in place.
func stripHopByHop(h http.Header) {
	for _, f := range h.Values("Connection") {
		for _, name := range strings.Split(f, ",") {
			if name = strings.TrimSpace(name); name != "" {
				h.Del(name)
			}
		}
	}
	for _, name := range hopByHop {
		h.Del(name)
	}
}

// ServeHTTP serves replica hits locally and forwards misses to the origin,
// streaming the response back (including speculative headers, which pass
// through untouched). When the origin is unreachable — transport failure
// or open circuit — GETs degrade to the stale store before giving up.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Continue the client's trace so client→proxy→server share one ID.
	sp := p.tracer.StartRemote("proxy.request", r.Header.Get(obs.TraceparentHeader))
	sp.SetAttr("path", r.URL.Path)
	defer sp.Finish()
	if r.Method == http.MethodGet {
		p.mu.RLock()
		rep, ok := p.replicas[r.URL.Path]
		p.mu.RUnlock()
		if ok {
			rep.hit.Store(true)
			p.hits.Add(1)
			p.hitB.Add(int64(len(rep.body)))
			p.met.hits.Inc()
			p.met.hitBytes.Add(int64(len(rep.body)))
			sp.SetAttr("result", "hit")
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-Served-By", "specweb-proxy")
			w.Header().Set("Content-Length", strconv.Itoa(len(rep.body)))
			_, _ = w.Write(rep.body)
			return
		}
	}
	p.misses.Add(1)
	p.met.misses.Inc()
	sp.SetAttr("result", "miss")

	// Replica hits above are memory reads and stay free; a forward ties
	// up an origin connection, so it has to pass admission.
	if p.cfg.Admission != nil {
		release, err := p.cfg.Admission.Acquire(r.Context(), overload.Demand)
		if err != nil {
			p.shed.Add(1)
			p.met.shed.Inc()
			sp.SetAttr("result", "shed")
			w.Header().Set("Retry-After", strconv.Itoa(p.cfg.Admission.RetryAfter(overload.Demand)))
			w.Header().Set(HeaderShed, overload.Demand.String())
			http.Error(w, "proxy overloaded, retry later", http.StatusServiceUnavailable)
			return
		}
		defer release()
	}

	resp, err := p.forwardOrigin(r, sp)
	if err != nil {
		p.forward.Add(1)
		if p.serveStale(w, r, sp) {
			return
		}
		p.log.Warn("forward failed", "path", r.URL.Path, "err", err)
		if errors.Is(err, resilience.ErrOpen) {
			http.Error(w, "origin circuit open", http.StatusServiceUnavailable)
		} else {
			http.Error(w, "bad gateway", http.StatusBadGateway)
		}
		return
	}
	defer resp.Body.Close()
	stripHopByHop(resp.Header)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// forwardOrigin relays one request to the origin. Idempotent methods are
// retried under the breaker; anything else gets a single attempt. The
// caller owns the returned response body.
func (p *Proxy) forwardOrigin(r *http.Request, sp *obs.ActiveSpan) (*http.Response, error) {
	idempotent := r.Method == http.MethodGet || r.Method == http.MethodHead
	var resp *http.Response
	op := func(ctx context.Context) error {
		cctx, cancel := resilience.EnsureDeadline(ctx, p.cfg.ForwardTimeout)
		if err := p.breaker.Allow(); err != nil {
			cancel()
			return resilience.Permanent(err)
		}
		req, err := http.NewRequestWithContext(cctx, r.Method, p.origin+r.URL.RequestURI(), r.Body)
		if err != nil {
			cancel()
			p.breaker.Record(nil)
			p.met.originErrors.Inc()
			return resilience.Permanent(err)
		}
		req.Header = r.Header.Clone()
		stripHopByHop(req.Header)
		// Replace the inbound traceparent with the proxy's own span, so
		// the origin's span parents on this hop, not on the client's.
		if tp := sp.Traceparent(); tp != "" {
			req.Header.Set(obs.TraceparentHeader, tp)
		}
		got, err := p.http.Do(req)
		if err != nil {
			cancel()
			p.breaker.Record(err)
			p.met.originErrors.Inc()
			return err
		}
		// The response body must outlive this attempt; tie the timeout's
		// cancel to the body so the caller's Close releases it.
		got.Body = &cancelOnClose{ReadCloser: got.Body, cancel: cancel}
		if resp != nil {
			resp.Body.Close()
		}
		resp = got
		if got.StatusCode >= 500 && idempotent {
			ferr := fmt.Errorf("httpspec: origin: %s", got.Status)
			p.breaker.Record(ferr)
			p.met.originErrors.Inc()
			return ferr // retried; the last 5xx still streams through below
		}
		p.breaker.Record(nil)
		return nil
	}
	var err error
	if idempotent {
		err = p.retrier.Do(r.Context(), op)
	} else {
		err = op(r.Context())
	}
	if resp != nil {
		// Even when retries exhausted on persistent 5xx, relay the
		// origin's last answer rather than synthesizing one.
		return resp, nil
	}
	return nil, err
}

// cancelOnClose releases a per-attempt timeout when the response body is
// closed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// serveStale answers a GET from the stale store, reporting whether it
// did. Stale responses are marked so clients and chaos replays can count
// degraded service.
func (p *Proxy) serveStale(w http.ResponseWriter, r *http.Request, sp *obs.ActiveSpan) bool {
	if p.cfg.DisableServeStale || r.Method != http.MethodGet {
		return false
	}
	p.mu.RLock()
	body, ok := p.stale[r.URL.Path]
	p.mu.RUnlock()
	if !ok {
		return false
	}
	p.staleServes.Add(1)
	p.met.staleServes.Inc()
	sp.SetAttr("result", "stale")
	p.log.Info("serving stale replica", "path", r.URL.Path)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Served-By", "specweb-proxy")
	w.Header().Set(HeaderStale, "1")
	w.Header().Set("Warning", `110 specweb-proxy "Response is Stale"`)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
	return true
}
