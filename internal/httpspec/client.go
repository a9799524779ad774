package httpspec

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/obs"
	"specweb/internal/resilience"
)

// ErrShed marks a demand fetch the server refused under overload control
// (503 with the X-Specweb-Shed header). It is permanent — retrying into
// an overloaded server only deepens the overload — so callers see it
// immediately and should honour Retry-After instead. Detect it with
// errors.Is.
var ErrShed = errors.New("httpspec: request shed by overload control")

// ClientConfig parameterizes a speculative HTTP client.
type ClientConfig struct {
	// ID identifies the client to the server (Spec-Client header).
	ID string
	// AcceptBundles announces multipart bundle support — and, with a
	// PrefetchThreshold, that threshold, so that a hybrid server sends what
	// its hints would have had this client fetch behind the document asked
	// for.
	AcceptBundles bool
	// Cooperative piggybacks the cache digest on every request.
	Cooperative bool
	// PrefetchThreshold is the minimum spec-p at which the client follows
	// a prefetch hint; 0 disables hint-driven prefetching.
	PrefetchThreshold float64
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// Timeout bounds each demand fetch attempt and each prefetch; 0
	// means no client-imposed deadline (a caller context still applies).
	Timeout time.Duration
	// Retrier, when non-nil, retries failed demand fetches (transport
	// errors, 5xx, truncated bodies) — shared across clients so its
	// retry budget is global. When nil, Retry with MaxAttempts > 1
	// builds a private one; otherwise fetches are single-attempt.
	Retrier *resilience.Retrier
	Retry   resilience.RetryConfig
	// Breaker, when non-nil, guards demand fetches (shared per origin).
	Breaker *resilience.Breaker
	// Priority tags every demand request (Spec-Priority header):
	// "low", "" (normal), or "high". Low-priority demand is the first
	// demand class an overloaded server sheds.
	Priority string
	// Tracer records client spans and supplies the traceparent header
	// propagated on every request; nil means obs.DefaultTracer.
	Tracer *obs.Tracer
	// Attrib, when non-nil, records speculative deliveries into this
	// client's cache and their consumed/wasted resolution.
	Attrib *attrib.Ledger
	// AttribFeedback piggybacks Spec-Attrib resolution tokens for pushed
	// documents on demand requests, so a remote server's ledger learns the
	// fate of the bytes it pushed. Tokens for prefetched documents are sent
	// whatever this says: they are what the server's estimator learns a
	// prefetched document's use from.
	AttribFeedback bool
}

// ClientStats counts the client's activity.
type ClientStats struct {
	Fetches    int64 // client-initiated document fetches
	CacheHits  int64
	Pushed     int64 // documents received speculatively
	Prefetched int64 // documents fetched because of hints
	// PrefetchRoundTrips counts the requests those documents took: none for
	// the ones a server sent behind the demand answer, otherwise one per
	// followed response when every hinted document arrives in one answer,
	// and every attempt counts, answered or not. It is what
	// prefetching adds to the server's load.
	PrefetchRoundTrips int64
	BytesIn            int64

	// SpecHits counts cache hits served by a document that arrived
	// speculatively (pushed or prefetched) and had not been requested
	// before — the hits speculation itself manufactured. SpecHitBytes is
	// their byte total: exactly what a non-speculative client would have
	// had to fetch over the wire.
	SpecHits     int64
	SpecHitBytes int64
	// DemandBytes is the byte total of every client-initiated fetch (hit
	// or miss); MissBytes the requested-document bytes actually fetched.
	// MissBytes/DemandBytes is the live byte miss rate of §3.3.
	DemandBytes int64
	MissBytes   int64

	// Retries counts re-attempted demand fetches; StaleServes counts
	// responses a proxy marked as served from its stale store while the
	// origin was down — both feed the chaos-mode availability report.
	Retries     int64
	StaleServes int64

	// Shed counts demand fetches the server refused under overload
	// control (ErrShed) — deliberate degradation, not failure.
	Shed int64
}

// Add returns s + o field by field, the way per-client counters sum into
// a run total; Sub returns s − o, the activity between two snapshots.
func (s ClientStats) Add(o ClientStats) ClientStats { return s.plus(o, 1) }
func (s ClientStats) Sub(o ClientStats) ClientStats { return s.plus(o, -1) }

func (s ClientStats) plus(o ClientStats, sign int64) ClientStats {
	s.Fetches += sign * o.Fetches
	s.CacheHits += sign * o.CacheHits
	s.Pushed += sign * o.Pushed
	s.Prefetched += sign * o.Prefetched
	s.PrefetchRoundTrips += sign * o.PrefetchRoundTrips
	s.BytesIn += sign * o.BytesIn
	s.SpecHits += sign * o.SpecHits
	s.SpecHitBytes += sign * o.SpecHitBytes
	s.DemandBytes += sign * o.DemandBytes
	s.MissBytes += sign * o.MissBytes
	s.Retries += sign * o.Retries
	s.StaleServes += sign * o.StaleServes
	s.Shed += sign * o.Shed
	return s
}

// cacheEntry is one cached document; spec marks it as having arrived
// speculatively and not yet been requested. class is the delivery class
// for attribution and pMilli the probability the delivery was advertised
// at, in thousandths; resolved marks the delivery as already attributed
// (consumed or wasted) so it resolves exactly once. owed counts the copies
// of an unresolved prefetch that arrived again since: each is reported wasted
// once the entry itself has been reported.
type cacheEntry struct {
	body     []byte
	class    string
	pMilli   int16
	owed     int16
	spec     bool
	resolved bool
}

// Client is a caching HTTP client that understands the speculative
// protocol: it consumes bundles, follows prefetch hints, and keeps a
// session cache keyed by URL path.
type Client struct {
	cfg     ClientConfig
	base    string
	baseURL *url.URL // base parsed once; nil when appending a path to it is not just string concatenation
	accept  string   // the Spec-Accept header of a demand request; "" sends none
	retrier *resilience.Retrier
	tracer  *obs.Tracer

	mu      sync.Mutex
	cache   map[string]cacheEntry
	stats   ClientStats
	pending []report // Spec-Attrib feedback awaiting a demand request
}

// report is one queued Spec-Attrib token: what became of a speculative
// delivery. It goes on the wire as "c:<class>:<path>" or "w:<class>:<path>".
type report struct {
	consumed bool
	class    string
	path     string
}

// NewClient builds a client for the server at base (e.g. the URL of an
// httptest server).
func NewClient(base string, cfg ClientConfig) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer
	}
	retrier := cfg.Retrier
	if retrier == nil && cfg.Retry.MaxAttempts > 1 {
		retrier = resilience.NewRetrier(cfg.Retry)
	}
	c := &Client{cfg: cfg, base: strings.TrimRight(base, "/"),
		retrier: retrier, tracer: cfg.Tracer, cache: make(map[string]cacheEntry)}
	if cfg.AcceptBundles {
		c.accept = acceptBundle
		if m := prefetchMilli(cfg.PrefetchThreshold); m > 0 {
			c.accept += "; " + acceptPrefetch + strconv.FormatInt(m, 10)
		}
	}
	// A base that is literally scheme://host[:port][/plain/prefix], which
	// is what every caller passes, is parsed here once; anything else keeps
	// parsing base+path per request.
	if u, err := url.Parse(c.base); err == nil && u.Host != "" && !strings.HasSuffix(u.Host, ":") &&
		(u.Path == "" || plainPath(u.Path)) && c.base == u.Scheme+"://"+u.Host+u.Path {
		c.baseURL = u
	}
	return c
}

// plainPath reports whether path is an absolute path of unreserved
// characters and slashes: one url.Parse would take over verbatim, with
// nothing to unescape and no query or fragment to split off.
func plainPath(path string) bool {
	if path == "" || path[0] != '/' {
		return false
	}
	for i := 0; i < len(path); i++ {
		c := path[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '/', c == '.', c == '_', c == '~', c == '-':
		default:
			return false
		}
	}
	return true
}

// newRequest is http.NewRequestWithContext(ctx, GET, c.base+path, nil)
// without parsing the base again on every round trip: for a plain path the
// request's URL is a copy of the parsed base with the path appended.
func (c *Client) newRequest(ctx context.Context, path string) (*http.Request, error) {
	if c.baseURL == nil || !plainPath(path) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	}
	// The empty URL parses to an empty *url.URL, overwritten below.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "", nil)
	if err != nil {
		return nil, err
	}
	*req.URL = *c.baseURL
	req.URL.Path += path
	req.Host = req.URL.Host
	return req, nil
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Cached reports whether path is in the cache.
func (c *Client) Cached(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.cache[path]
	return ok
}

// EndSession purges the cache (the paper's end-of-session purge),
// resolving still-unused speculative entries as wasted.
func (c *Client) EndSession() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resolveUnusedLocked()
	c.cache = make(map[string]cacheEntry)
}

// ResolveOutstanding resolves every speculative cache entry that was
// never demanded as wasted, without purging the cache. Benchmarks and
// replays call it once at the end of a run so the ledger's outstanding
// count drains to zero before reporting.
func (c *Client) ResolveOutstanding() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resolveUnusedLocked()
}

// resolveUnusedLocked resolves the speculative entries nobody asked for, in
// path order: their tokens train the server, so the order they queue in
// must not be the map's. Callers hold mu.
func (c *Client) resolveUnusedLocked() {
	var buf [16]string // a session rarely leaves more unused; more spill to the heap
	unused := buf[:0]
	for path, e := range c.cache {
		if e.spec && !e.resolved {
			unused = append(unused, path)
		}
	}
	slices.Sort(unused)
	for _, path := range unused {
		e := c.cache[path]
		c.resolveLocked(path, &e)
		c.cache[path] = e
	}
}

// resolveLocked attributes one speculative delivery's fate exactly once:
// consumed when spec is already cleared by a demand hit, wasted while the
// entry is still marked speculative. Callers hold mu and must store the
// entry back if it stays cached.
func (c *Client) resolveLocked(path string, e *cacheEntry) {
	if e.resolved || e.class == "" {
		return
	}
	e.resolved = true
	consumed := !e.spec
	c.cfg.Attrib.Resolved(path, e.class, int64(len(e.body)), int64(e.pMilli), consumed)
	if c.cfg.AttribFeedback || e.class == attrib.ClassPrefetch {
		c.pending = append(c.pending, report{consumed: consumed, class: e.class, path: path})
	}
	for ; e.owed > 0; e.owed-- {
		c.pending = append(c.pending, report{class: attrib.ClassPrefetch, path: path})
	}
}

// Get fetches a document, serving from cache when possible. fromCache
// reports whether the body came from the local cache.
func (c *Client) Get(path string) (body []byte, fromCache bool, err error) {
	return c.GetCtx(context.Background(), path)
}

// GetCtx is Get with cancellation and deadline propagation: the caller's
// context bounds the demand fetch, its retries, and any synchronous
// hint-driven prefetches.
func (c *Client) GetCtx(ctx context.Context, path string) (body []byte, fromCache bool, err error) {
	c.mu.Lock()
	c.stats.Fetches++
	if e, ok := c.cache[path]; ok {
		c.stats.CacheHits++
		c.stats.DemandBytes += int64(len(e.body))
		if e.spec {
			// First request for a speculatively delivered document:
			// count the manufactured hit, resolve the delivery as
			// consumed, then treat it as an ordinary cached document.
			c.stats.SpecHits++
			c.stats.SpecHitBytes += int64(len(e.body))
			e.spec = false
			c.resolveLocked(path, &e)
			c.cache[path] = e
		}
		c.mu.Unlock()
		return e.body, true, nil
	}
	digest := c.digestLocked()
	feedback := c.drainFeedbackLocked()
	c.mu.Unlock()

	sp := c.tracer.Start("client.get")
	sp.SetAttr("path", path)
	defer sp.Finish()

	var hints []clientHint
	if c.retrier != nil {
		attempts := 0
		err = c.retrier.Do(ctx, func(ctx context.Context) error {
			attempts++
			var ferr error
			body, hints, ferr = c.fetch(ctx, sp, path, digest, feedback)
			return ferr
		})
		if attempts > 1 {
			c.mu.Lock()
			c.stats.Retries += int64(attempts - 1)
			c.mu.Unlock()
		}
	} else {
		body, hints, err = c.fetch(ctx, sp, path, digest, feedback)
	}
	if err != nil {
		// The fetch failed for good and its tokens may not have arrived:
		// back to the head of the queue, for the next fetch to carry. A
		// token the server did get is harmless to repeat to its engine (an
		// offer settles once).
		c.requeueFeedback(feedback)
		return nil, false, err
	}
	c.mu.Lock()
	c.stats.DemandBytes += int64(len(body))
	c.stats.MissBytes += int64(len(body))
	c.mu.Unlock()
	// Hint-driven prefetching happens synchronously so behaviour is
	// deterministic; a production client would fetch in the background.
	c.followHints(ctx, sp, hints)
	return body, false, nil
}

// drainFeedbackLocked takes the queued Spec-Attrib tokens (bounded per
// request so one demand fetch never carries an unbounded header) and
// renders them as the header. Callers hold mu.
func (c *Client) drainFeedbackLocked() string {
	if len(c.pending) == 0 {
		return ""
	}
	const maxTokens = 32
	n := min(len(c.pending), maxTokens)
	var buf [1024]byte // 32 tokens of the sites' path lengths fit; longer ones spill to the heap
	out := buf[:0]
	for i, r := range c.pending[:n] {
		if i > 0 {
			out = append(out, ' ')
		}
		if r.consumed {
			out = append(out, "c:"...)
		} else {
			out = append(out, "w:"...)
		}
		out = append(out, r.class...)
		out = append(out, ':')
		out = append(out, r.path...)
	}
	c.pending = append(c.pending[:0], c.pending[n:]...)
	return string(out)
}

// requeueFeedback puts the tokens of a header back at the head of the queue.
func (c *Client) requeueFeedback(header string) {
	var back []report
	for {
		var tok string
		if tok, header = nextAttribToken(header); tok == "" {
			break
		}
		if consumed, class, path, ok := parseAttribToken(tok); ok {
			back = append(back, report{consumed: consumed, class: class, path: path})
		}
	}
	if len(back) == 0 {
		return
	}
	c.mu.Lock()
	c.pending = append(back, c.pending...)
	c.mu.Unlock()
}

type clientHint struct {
	path string
	p    float64
}

// fetch performs one HTTP request and ingests the response (direct body or
// bundle), returning the requested document's body and any prefetch hints.
// Transport errors, 5xx responses and truncated bodies return retryable
// errors; 4xx responses are marked permanent so the retrier stops.
func (c *Client) fetch(ctx context.Context, sp *obs.ActiveSpan, path, digest, feedback string) ([]byte, []clientHint, error) {
	if c.cfg.Breaker != nil {
		if err := c.cfg.Breaker.Allow(); err != nil {
			return nil, nil, resilience.Permanent(err)
		}
	}
	body, hints, err := c.fetchAllowed(ctx, sp, path, digest, feedback)
	if c.cfg.Breaker != nil {
		if resilience.IsPermanent(err) {
			c.cfg.Breaker.Record(nil) // the origin answered; 4xx is not its failure
		} else {
			c.cfg.Breaker.Record(err)
		}
	}
	return body, hints, err
}

func (c *Client) fetchAllowed(ctx context.Context, sp *obs.ActiveSpan, path, digest, feedback string) ([]byte, []clientHint, error) {
	cctx, cancel := resilience.EnsureDeadline(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := c.newRequest(cctx, path)
	if err != nil {
		return nil, nil, resilience.Permanent(err)
	}
	if tp := sp.Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	if c.cfg.ID != "" {
		req.Header.Set(HeaderClient, c.cfg.ID)
	}
	if c.accept != "" {
		req.Header.Set(HeaderAccept, c.accept)
	}
	if c.cfg.Cooperative && digest != "" {
		req.Header.Set(HeaderHave, digest)
	}
	if c.cfg.Priority != "" {
		req.Header.Set(HeaderPriority, c.cfg.Priority)
	}
	if feedback != "" {
		req.Header.Set(HeaderAttrib, feedback)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get(HeaderShed) != "" {
			c.mu.Lock()
			c.stats.Shed++
			c.mu.Unlock()
			return nil, nil, resilience.Permanent(
				fmt.Errorf("httpspec: GET %s: %w (Retry-After %s)",
					path, ErrShed, resp.Header.Get("Retry-After")))
		}
		ferr := fmt.Errorf("httpspec: GET %s: %s", path, resp.Status)
		if resp.StatusCode >= 500 {
			return nil, nil, ferr
		}
		return nil, nil, resilience.Permanent(ferr)
	}
	if resp.Header.Get(HeaderStale) != "" {
		c.mu.Lock()
		c.stats.StaleServes++
		c.mu.Unlock()
	}

	var hints []clientHint
	for _, l := range resp.Header.Values("Link") {
		if h, ok := parseLinkHint(l); ok {
			hints = append(hints, h)
		}
	}

	if boundary, ok := bundleBoundaryOf(resp.Header.Get("Content-Type")); ok {
		body, err := c.ingestBundle(path, resp, boundary)
		return body, hints, err
	}
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	c.cache[path] = cacheEntry{body: body}
	c.stats.BytesIn += int64(len(body))
	c.mu.Unlock()
	return body, hints, nil
}

// openBundle reads a multipart response into one buffer and returns the
// walker over it.
func openBundle(resp *http.Response, boundary string) (bundleWalker, error) {
	if boundary == "" {
		return bundleWalker{}, fmt.Errorf("httpspec: bundle without boundary")
	}
	raw, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return bundleWalker{}, fmt.Errorf("httpspec: reading bundle: %w", err)
	}
	bw, err := newBundleWalker(raw, boundary)
	if err != nil {
		return bundleWalker{}, fmt.Errorf("httpspec: reading bundle: %w", err)
	}
	return bw, nil
}

// ingestBundle reads a multipart bundle into one buffer and walks it in
// place, caching every part and returning the part matching the requested
// path; cached bodies (and the one returned) are capacity-clipped
// sub-slices of that buffer, read-only like every cached body. A part says
// what it is: Spec-Pushed marks a push, Spec-P alone a prefetch the server
// sent in place of a hint this client would have followed, and both are
// recorded in the attribution ledger; a speculative copy of a document
// already cached is resolved as wasted on the spot (the bytes crossed the
// wire for nothing).
func (c *Client) ingestBundle(want string, resp *http.Response, boundary string) ([]byte, error) {
	bw, err := openBundle(resp, boundary)
	if err != nil {
		return nil, err
	}
	rung := validRung(resp.Header.Get(HeaderRung))
	var wanted []byte
	found := false
	for {
		part, ok, err := bw.next()
		if err != nil {
			return nil, fmt.Errorf("httpspec: reading bundle: %w", err)
		}
		if !ok {
			break
		}
		loc, body := string(part.loc), part.body
		class := ""
		switch {
		case len(part.pushed) > 0:
			class = attrib.ClassPush
		case len(part.specP) > 0:
			class = attrib.ClassPrefetch
		}
		var pMilli int64
		if class != "" {
			// Clamped parse: Spec-P crosses the wire, so garbage or
			// oversized values must not reach the ledger's sums.
			pMilli, _ = parsePMilli(string(part.specP))
		}
		c.mu.Lock()
		c.stats.BytesIn += int64(len(body))
		if class != "" {
			c.cfg.Attrib.Delivered(loc, class, int64(len(body)), pMilli, rung)
		}
		switch held, dup := c.cache[loc]; {
		case !dup:
			c.cache[loc] = cacheEntry{body: body, spec: class != "", class: class, pMilli: int16(pMilli)}
			switch class {
			case attrib.ClassPush:
				c.stats.Pushed++
			case attrib.ClassPrefetch:
				c.stats.Prefetched++
			}
		case class != "":
			// A speculative copy of a document already held: discarded
			// immediately, pure waste.
			c.cfg.Attrib.Resolved(loc, class, int64(len(body)), pMilli, false)
			if class == attrib.ClassPrefetch {
				c.reportDuplicateLocked(loc, held)
			}
		}
		c.mu.Unlock()
		if loc == want {
			wanted, found = body, true
		}
	}
	if !found {
		return nil, fmt.Errorf("httpspec: bundle missing requested document %q", want)
	}
	return wanted, nil
}

// reportDuplicateLocked tells the server that the prefetch of path it sent
// unasked reached a client holding the document as held, so that its offer
// does not stand until it expires. The server keeps one offer per client and
// document: while the held copy is itself a prefetch whose fate is still to
// be reported, that report must be the first the server hears — or a copy
// used later would settle nothing and teach it nothing — and this one
// follows it (resolveLocked); otherwise it rides on the next fetch. Callers
// hold mu.
func (c *Client) reportDuplicateLocked(path string, held cacheEntry) {
	if held.class == attrib.ClassPrefetch && !held.resolved {
		held.owed++
		c.cache[path] = held
		return
	}
	c.pending = append(c.pending, report{class: attrib.ClassPrefetch, path: path})
}

// followHints prefetches what a response hinted: every hint at or above
// the threshold whose document is not cached, each once, in as few requests
// as carry them (no hint recursion: a prefetch's own hints are not followed).
// hints is reused as the list of what is still to ask for.
func (c *Client) followHints(ctx context.Context, parent *obs.ActiveSpan, hints []clientHint) {
	if c.cfg.PrefetchThreshold == 0 {
		return
	}
	want := hints[:0]
	c.mu.Lock()
	for _, h := range hints {
		if h.p < c.cfg.PrefetchThreshold {
			continue
		}
		if _, ok := c.cache[h.path]; ok {
			continue
		}
		if slices.ContainsFunc(want, func(w clientHint) bool { return w.path == h.path }) {
			continue
		}
		// The server keeps one offer per client and document. While the
		// report on an earlier prefetch of this one is still queued (only
		// when more tokens were owed than the last fetch could carry),
		// prefetching it again would have that report settle the new offer.
		if slices.ContainsFunc(c.pending, func(r report) bool { return r.class == attrib.ClassPrefetch && r.path == h.path }) {
			continue
		}
		want = append(want, h)
	}
	c.mu.Unlock()
	for len(want) > 0 {
		want = c.prefetch(ctx, parent, want)
	}
}

// prefetch sends one prefetch request and returns what is still to ask
// for. want[0] heads the request: its path is the URL, its probability goes
// in Spec-Prefetch. The hints after it ride in Spec-Want, up to maxWant
// documents in all and stopping short of a path the list cannot name. Every
// part of the answer that was asked for enters the cache as a prefetch;
// anything else in it is dropped. Whatever the answer leaves out — the
// server's cap, a proxy that answered the head from a replica, a failure —
// stays in the returned list behind the hints not yet asked for, and the
// head never does, so a hint list is worked off whole and in order whatever
// the server sends. Prefetches are speculative, so they stay single-attempt:
// a failed prefetch costs nothing the demand path will not recover later.
// The request continues the demand fetch's trace as a child span.
func (c *Client) prefetch(ctx context.Context, parent *obs.ActiveSpan, want []clientHint) []clientHint {
	var listBuf [512]byte
	list := listBuf[:0]
	n := 1
	for n < len(want) && n < maxWant && wantable(want[n].path) {
		list = appendWant(list, want[n].path, attrib.PMilli(want[n].p))
		n++
	}
	got := c.fetchWanted(ctx, parent, want[:n], string(list))
	rest := want[:0]
	for i := 1; i < len(want); i++ {
		if i >= n || !got[i] {
			rest = append(rest, want[i])
		}
	}
	return rest
}

// fetchWanted performs the request for asked (asked[0] in the URL, the rest
// named by list) and admits what arrives; got marks which of asked did.
func (c *Client) fetchWanted(ctx context.Context, parent *obs.ActiveSpan, asked []clientHint, list string) (got [maxWant]bool) {
	path := asked[0].path
	c.mu.Lock()
	digest := c.digestLocked()
	c.stats.PrefetchRoundTrips++
	c.mu.Unlock()

	sp := c.tracer.StartChild("client.prefetch", parent)
	sp.SetAttr("path", path)
	defer sp.Finish()

	cctx, cancel := resilience.EnsureDeadline(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := c.newRequest(cctx, path)
	if err != nil {
		return got
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
	req.Header.Set(HeaderPrefetch, strconv.FormatInt(attrib.PMilli(asked[0].p), 10))
	if list != "" {
		req.Header.Set(HeaderWant, list)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return got
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return got
	}
	rung := validRung(resp.Header.Get(HeaderRung))
	boundary, ok := bundleBoundaryOf(resp.Header.Get("Content-Type"))
	if !ok {
		// The head alone: all a batch of one asks for, and all a hop that
		// does not read Spec-Want sends.
		if body, err := readBody(resp.Body, resp.ContentLength); err == nil {
			got[0] = true
			c.admitPrefetch(asked[0], body, rung)
		}
		return got
	}
	bw, err := openBundle(resp, boundary)
	if err != nil {
		return got
	}
	for {
		part, ok, err := bw.next()
		if err != nil || !ok {
			return got
		}
		// The client classifies by what it asked for: whatever the part
		// says of itself, one that was not asked for is not cached.
		for i, h := range asked {
			if !got[i] && h.path == string(part.loc) {
				got[i] = true
				c.admitPrefetch(h, part.body, rung)
				break
			}
		}
	}
}

// admitPrefetch caches one prefetched document as a speculative delivery.
func (c *Client) admitPrefetch(h clientHint, body []byte, rung string) {
	c.mu.Lock()
	if _, ok := c.cache[h.path]; !ok {
		pMilli := attrib.PMilli(h.p)
		c.cfg.Attrib.Delivered(h.path, attrib.ClassPrefetch, int64(len(body)), pMilli, rung)
		c.cache[h.path] = cacheEntry{body: body, spec: true, class: attrib.ClassPrefetch, pMilli: int16(pMilli)}
		c.stats.Prefetched++
		c.stats.BytesIn += int64(len(body))
	}
	c.mu.Unlock()
}

// digestLocked renders the cooperative Spec-Have digest. Callers hold mu.
func (c *Client) digestLocked() string {
	if !c.cfg.Cooperative || len(c.cache) == 0 {
		return ""
	}
	paths := make([]string, 0, len(c.cache))
	for p := range c.cache {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return strings.Join(paths, " ")
}

// parseLinkHint parses `</path>; rel="prefetch"; spec-p=0.42`. The
// probability is clamped to [0,1]; NaN, infinities, and malformed values
// fall to 0, so a hostile Link header can at worst suppress one prefetch
// — it cannot poison the attribution ledger's fixed-point sums.
func parseLinkHint(l string) (clientHint, bool) {
	target, params, _ := strings.Cut(l, ";")
	target = strings.TrimSpace(target)
	if !strings.HasPrefix(target, "<") || !strings.HasSuffix(target, ">") {
		return clientHint{}, false
	}
	h := clientHint{path: target[1 : len(target)-1]}
	isPrefetch := false
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		p = strings.TrimSpace(p)
		switch {
		case p == `rel="prefetch"` || p == "rel=prefetch":
			isPrefetch = true
		case strings.HasPrefix(p, "spec-p="):
			if v, err := strconv.ParseFloat(p[len("spec-p="):], 64); err == nil {
				h.p = clampProb(v)
			}
		}
	}
	return h, isPrefetch
}
