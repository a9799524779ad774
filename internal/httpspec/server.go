package httpspec

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/core"
	"specweb/internal/estguard"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/speculation"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// Protocol header names. Spec-Client identifies the requesting client
// (falling back to the remote address), Spec-Accept announces bundle
// support and, as its prefetch parameter, the probability from which the
// client follows hints (parseAccept), and Spec-Have carries a cooperative
// client's cache digest as space-separated URL paths. The server does not
// read the digest: what a session holds of the server's deliveries is in
// the session set the engine keeps (Spec-Accept's session parameter).
const (
	HeaderClient = "Spec-Client"
	HeaderAccept = "Spec-Accept"
	HeaderHave   = "Spec-Have"
	// HeaderPushed marks a bundle part as speculative (absent on the
	// requested document itself).
	HeaderPushed = "Spec-Pushed"
	// HeaderStale marks a response served from a proxy's superseded
	// replica store while the origin was unreachable (degraded mode).
	HeaderStale = "X-Specweb-Stale"
	// HeaderPriority carries the client's demand priority ("low",
	// "normal" or "high"; absent means normal). Under the deepest
	// degradation rung, low-priority demand is shed first.
	HeaderPriority = "Spec-Priority"
	// HeaderShed marks a 503 as deliberate overload shedding (value is
	// the shed traffic class), so clients and replays can distinguish
	// load shedding from failure.
	HeaderShed = "X-Specweb-Shed"
	// HeaderSpecP carries, on a bundle part the server chose to send, the
	// engine probability that drove it, in thousandths — the attribution
	// ledger's fixed-point currency. With Spec-Pushed the part is a push;
	// without, a prefetch sent in place of a hint the client would have
	// followed.
	HeaderSpecP = "Spec-P"
	// HeaderRung carries the governor's degradation rung name on
	// responses, so attribution can bucket deliveries by the overload
	// state they were decided under.
	HeaderRung = "Spec-Rung"
	// HeaderPrefetch marks a request as a hint-driven prefetch and
	// carries the hint probability in thousandths, letting the server's
	// ledger record the delivery.
	HeaderPrefetch = "Spec-Prefetch"
	// HeaderWant names, on a prefetch request, further hinted documents
	// the client wants in the same answer: "path;p" items separated by
	// spaces, p in thousandths like Spec-Prefetch's. The answer is a bundle
	// of the requested document and the named ones the server sends (at
	// most MaxPush; unknown paths and repeats are skipped).
	HeaderWant = "Spec-Want"
	// HeaderAttrib piggybacks attribution feedback on demand requests:
	// space-separated "c:<class>:<path>" (consumed) and
	// "w:<class>:<path>" (wasted) tokens resolving earlier speculative
	// deliveries in the server's ledger.
	HeaderAttrib = "Spec-Attrib"
	// HeaderQuarantine announces, on responses to clients the estimator
	// guard has quarantined, the classification reason. Quarantined
	// clients still get full demand service but no speculation: pushing
	// to a crawler is pure waste, and its transitions no longer train
	// P[i,j].
	HeaderQuarantine = "X-Specweb-Quarantine"
)

// Mode selects the server's delivery of speculative candidates; it is the
// selection kernel's mode.
type Mode = speculation.Mode

const (
	// ModePush sends multipart bundles to clients that accept them.
	ModePush = speculation.ModePush
	// ModeHints only attaches Link: rel="prefetch" headers.
	ModeHints = speculation.ModeHints
	// ModeHybrid pushes near-certain candidates and hints the rest.
	ModeHybrid = speculation.ModeHybrid
)

// ParseMode resolves a command-line mode name (speculation.ParseMode).
func ParseMode(name string) (Mode, error) { return speculation.ParseMode(name) }

// ServerConfig parameterizes a speculative HTTP server.
type ServerConfig struct {
	Engine core.EngineConfig
	Mode   Mode
	// MaxPush bounds the number of documents sent per response besides
	// the requested one: pushed, sent in place of hints, or named by a
	// prefetch's Spec-Want.
	MaxPush int
	// Clock supplies request times; nil means time.Now. Tests and
	// trace replays inject their own.
	Clock func() time.Time
	// Metrics selects the registry the server (and its engine and
	// replicator) register metrics in; nil means obs.Default.
	Metrics *obs.Registry
	// Tracer records per-request spans; nil means obs.DefaultTracer.
	Tracer *obs.Tracer
	// Admission gates document requests through the overload
	// controller's demand class; nil admits everything.
	Admission *overload.Controller
	// Governor adapts speculation to load (the degradation ladder); nil
	// leaves the engine's knobs static. NewServer binds it to the
	// engine with the configured Tp/TopK/MaxSize as the baseline.
	Governor *overload.Governor
	// Attrib, when non-nil, records every speculative delivery this
	// server makes (pushes, hinted prefetches it serves) and resolves
	// them from client Spec-Attrib feedback.
	Attrib *attrib.Ledger
}

// DefaultServerConfig returns a push-mode server with the baseline engine.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Engine:  core.DefaultEngineConfig(),
		Mode:    ModeHybrid,
		MaxPush: 16,
	}
}

// ServerStats counts the server's activity.
type ServerStats struct {
	Requests     int64
	BytesSent    int64
	DocsPushed   int64
	HintsSent    int64
	NotFound     int64
	BundlesBuilt int64
}

// Server is the speculative HTTP server: an http.Handler serving a Store.
type Server struct {
	store  Store
	cfg    ServerConfig
	engine *core.Engine
	repl   *core.Replicator
	met    *serverMetrics
	tracer *obs.Tracer

	requests   atomic.Int64
	bytesSent  atomic.Int64
	docsPushed atomic.Int64
	hintsSent  atomic.Int64
	notFound   atomic.Int64
	bundles    atomic.Int64

	// Degradation-ladder accounting: speculative work suppressed (docs
	// not pushed, requests served without any speculation) and demand
	// requests shed, per instance.
	pushSuppressed  atomic.Int64
	embedSuppressed atomic.Int64
	demandShed      atomic.Int64

	// Requests served without speculation because the estimator guard
	// quarantined the client.
	quarSuppressed atomic.Int64
}

// serverMetrics are the server's observability series; the snapshot-style
// ServerStats struct stays for the JSON /spec/stats endpoint.
type serverMetrics struct {
	requests    *obs.Counter
	notFound    *obs.Counter
	bytesSent   *obs.Counter
	pushedDocs  *obs.Counter
	pushedBytes *obs.Counter
	hints       *obs.Counter
	bundles     *obs.Counter
	latency     *obs.Histogram
	respBytes   *obs.Histogram

	// specweb_overload_* ladder counters, one per shedding rung.
	pushSuppressed  *obs.Counter
	embedSuppressed *obs.Counter
	demandShed      *obs.Counter

	quarSuppressed *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests:    reg.Counter("specweb_server_requests_total", "Client-initiated document requests served.", nil),
		notFound:    reg.Counter("specweb_server_not_found_total", "Requests for unknown paths.", nil),
		bytesSent:   reg.Counter("specweb_server_bytes_sent_total", "Response bytes written (documents and bundle parts).", nil),
		pushedDocs:  reg.Counter("specweb_server_pushed_docs_total", "Documents pushed speculatively in bundles.", nil),
		pushedBytes: reg.Counter("specweb_server_pushed_bytes_total", "Bytes pushed speculatively in bundles.", nil),
		hints:       reg.Counter("specweb_server_hints_total", "Link rel=prefetch hints attached to responses.", nil),
		bundles:     reg.Counter("specweb_server_bundles_total", "Multipart bundles built.", nil),
		latency:     reg.Histogram("specweb_server_request_seconds", "Document request service time in seconds.", obs.LatencyBuckets(), nil),
		respBytes:   reg.Histogram("specweb_server_response_bytes", "Response size in bytes per document request.", obs.SizeBuckets(), nil),
		pushSuppressed: reg.Counter("specweb_overload_pushes_suppressed_total",
			"Documents not pushed because the degradation ladder was at no_push or higher.", nil),
		embedSuppressed: reg.Counter("specweb_overload_embeds_suppressed_total",
			"Requests served without any speculation because the ladder was at no_spec or higher.", nil),
		demandShed: reg.Counter("specweb_overload_demand_shed_total",
			"Demand requests shed with 503 + Retry-After (admission reject or shed_demand rung).", nil),
		quarSuppressed: reg.Counter("specweb_estguard_spec_suppressed_total",
			"Requests served without speculation because the client is quarantined.", nil),
	}
}

// NewServer builds a server over the store.
func NewServer(store Store, cfg ServerConfig) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("httpspec: nil store")
	}
	if cfg.MaxPush <= 0 {
		cfg.MaxPush = 16
	}
	if cfg.Engine.Metrics == nil {
		cfg.Engine.Metrics = cfg.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer
	}
	if cfg.Engine.Guard != nil && cfg.Engine.Feedback == nil && cfg.Attrib != nil {
		// Close the loop by default: snapshot validation calibrates
		// against the same ledger this server records deliveries in.
		led := cfg.Attrib
		cfg.Engine.Feedback = func() (int64, int64, int64) {
			t := led.TotalsSnapshot()
			return t.Deliveries, t.Consumed, t.Wasted
		}
	}
	eng, err := core.NewEngine(cfg.Engine, func(id webgraph.DocID) (int64, bool) {
		return store.Size(id)
	})
	if err != nil {
		return nil, err
	}
	// The governor throttles this engine's §3.4 knobs, restoring the
	// configured operating point when load drains.
	cfg.Governor.Bind(eng, overload.Baseline{
		Tp:      cfg.Engine.Tp,
		TopK:    cfg.Engine.TopK,
		MaxSize: cfg.Engine.MaxSize,
	})
	return &Server{
		store:  store,
		cfg:    cfg,
		engine: eng,
		repl:   core.NewReplicatorIn(cfg.Metrics),
		met:    newServerMetrics(cfg.Metrics),
		tracer: cfg.Tracer,
	}, nil
}

// Engine exposes the online engine (for tests and stats).
func (s *Server) Engine() *core.Engine { return s.engine }

// Replicator exposes the popularity tracker feeding dissemination.
func (s *Server) Replicator() *core.Replicator { return s.repl }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:     s.requests.Load(),
		BytesSent:    s.bytesSent.Load(),
		DocsPushed:   s.docsPushed.Load(),
		HintsSent:    s.hintsSent.Load(),
		NotFound:     s.notFound.Load(),
		BundlesBuilt: s.bundles.Load(),
	}
}

func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// ServeHTTP handles document requests plus two control endpoints:
// GET /spec/stats (JSON counters) and GET /spec/replicas?budget=N (the
// dissemination replica set recommendation).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/spec/stats":
		s.serveStats(w)
		return
	case r.URL.Path == "/spec/replicas":
		s.serveReplicas(w, r)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	start := s.now()
	// Continue the caller's trace when it sent one (client or proxy hop),
	// so one trace ID spans the whole request path.
	sp := s.tracer.StartRemote("server.request", r.Header.Get(obs.TraceparentHeader))
	sp.SetAttr("path", r.URL.Path)
	defer sp.Finish()

	// Admission first: a saturated server answers 503 + Retry-After
	// before doing any work for the request. The wait queue inside
	// Acquire is deadline-aware, so a request that cannot outlast the
	// backlog fails immediately rather than timing out silently.
	if s.cfg.Admission != nil {
		release, err := s.cfg.Admission.Acquire(r.Context(), overload.Demand)
		if err != nil {
			s.shedDemand(w, sp, s.cfg.Admission.RetryAfter(overload.Demand))
			return
		}
		defer release()
	}

	id, ok := s.store.Lookup(r.URL.Path)
	if !ok {
		s.notFound.Add(1)
		s.met.notFound.Inc()
		sp.SetAttr("status", "404")
		http.NotFound(w, r)
		return
	}

	// The degradation ladder's last rung: shed lowest-priority demand
	// before recording or serving anything — the cheapest possible exit.
	rung := s.cfg.Governor.Rung()
	rungName := overload.RungName(rung)
	sp.SetAttr("rung", rungName)
	if rung >= overload.RungShedDemand && priorityOf(r) == prioLow {
		s.shedDemand(w, sp, 1)
		return
	}
	if s.cfg.Governor != nil {
		w.Header().Set(HeaderRung, rungName)
	}

	// Resolve attribution feedback the client piggybacked before counting
	// this request's own speculation.
	client := clientID(r)
	s.ingestAttrib(client, r.Header.Get(HeaderAttrib))

	s.requests.Add(1)
	s.met.requests.Inc()

	// docs is what the response carries: the requested document and, in a
	// bundle behind it, what is pushed or what a prefetch asked for.
	var docBuf [1 + maxWant]bundleDoc // a default MaxPush fits; more spill to the heap
	docs := append(docBuf[:0], bundleDoc{doc: id})
	at := s.now()
	bundles, follows, session := parseAccept(r.Header.Get(HeaderAccept))
	token := sessionKey(session)
	prefetchP := r.Header.Get(HeaderPrefetch)
	if prefetchP != "" {
		// A hint-driven prefetch announces itself (with the hint's
		// probability); the bytes it pulls are a speculative delivery, and
		// the user has not asked for them: the engine is offered the
		// document and learns of an access only if the client reports one.
		// Clamped parse: a forged or malformed probability must not poison
		// the ledger's confidence sums.
		docs[0].class = attrib.ClassPrefetch
		docs[0].pMilli, _ = parsePMilli(prefetchP)
		s.engine.Offer(client, id, at, docs[0].pMilli)
	} else {
		s.engine.Record(client, id, at)
	}
	// Dissemination counts deliveries, prefetched ones included: a proxy
	// holding the replica intercepts those too.
	size, _ := s.store.Size(id)
	s.repl.Record(id, size, isRemote(client))

	// Quarantined clients (crawlers, scanners, bots per the estimator
	// guard) are served normally but never speculated to: every pushed
	// byte to a one-pass crawler is guaranteed waste. The status only
	// changes at refresh time, so this decision is deterministic for a
	// given trace regardless of request interleaving.
	quarReason := ""
	if st, reason := s.engine.ClientStatus(client); st == estguard.Quarantined {
		quarReason = reason
		if quarReason == "" {
			quarReason = "quarantined"
		}
		w.Header().Set(HeaderQuarantine, quarReason)
	}

	var hintBuf [8]hint // the usual response hints a handful; more spill to the heap
	hints := hintBuf[:0]
	switch {
	case quarReason != "":
		s.quarSuppressed.Add(1)
		s.met.quarSuppressed.Inc()
		sp.SetAttr("speculation", "quarantined")
	case rung >= overload.RungNoSpec:
		// Second rung: no speculation at all — skip the candidate
		// computation entirely and serve the plain demand response.
		s.embedSuppressed.Add(1)
		s.met.embedSuppressed.Inc()
		sp.SetAttr("speculation", "suppressed")
	case prefetchP != "":
		// The client follows no hints from a prefetch's answer, so none
		// are computed. What rides behind the document is what Spec-Want
		// names, each served as the request of its own it replaces would
		// have been: offered to the engine, counted for dissemination,
		// delivered as a prefetch.
		docs = parseWant(docs, r.Header.Get(HeaderWant), s.store, s.cfg.MaxPush)
	default:
		// The engine's decision path, which leaves out what the session
		// was sent: the pooled Decision's buffers back push/hints until the
		// response is written, then recycle at request end.
		d := core.AcquireDecision()
		defer core.ReleaseDecision(d)
		spec := s.tracer.StartChild("server.speculate", sp)
		s.engine.SessionInto(d, s.cfg.Mode, id, client, token)
		push, pushP := d.Push, d.PushP
		for _, h := range d.Hints {
			hints = append(hints, hint{doc: h.Doc, p: h.P})
		}
		if len(push) > s.cfg.MaxPush {
			push = push[:s.cfg.MaxPush]
			pushP = pushP[:s.cfg.MaxPush]
		}
		if rung >= overload.RungNoPush && len(push) > 0 {
			// First rung: stop pushing — the bytes are the expensive
			// part. The already-computed candidates demote to hints, so
			// clients keep some speculative benefit at header cost.
			s.pushSuppressed.Add(int64(len(push)))
			s.met.pushSuppressed.Add(int64(len(push)))
			for i, d := range push {
				hints = append(hints, hint{doc: d, p: pushP[i]})
			}
			push, pushP = nil, nil
		}
		// A client that takes no bundles is pushed nothing.
		if bundles {
			for i, d := range push {
				docs = append(docs, bundleDoc{doc: d, class: attrib.ClassPush, pMilli: attrib.PMilli(pushP[i])})
			}
		}
		// A client that stated the probability it follows hints from would
		// come straight back for every hint at or above it. A hybrid server
		// that is still pushing says it once: those documents ride behind the
		// requested one, each served as the prefetch it replaces would have
		// been, and what the response has no room for stays a hint.
		inline := 0
		if follows > 0 && s.cfg.Mode == ModeHybrid && rung < overload.RungNoPush {
			named := hints[:0]
			for _, h := range hints {
				pMilli := hintMilli(h.p)
				if pMilli < follows || len(docs) > s.cfg.MaxPush {
					named = append(named, h)
					continue
				}
				docs = append(docs, bundleDoc{doc: h.doc, class: attrib.ClassPrefetch, pMilli: pMilli, inline: true})
				inline++
			}
			hints = named
		}
		spec.SetAttr("push", strconv.Itoa(len(push)))
		spec.SetAttr("hints", strconv.Itoa(len(hints)))
		spec.SetAttr("inline", strconv.Itoa(inline))
		spec.Finish()
	}
	// The session's set takes in everything the response carries, and a part
	// it already held — only what Spec-Want names can still be one — stays
	// behind. A prefetch behind the document is then served as the request
	// of its own it replaces would have been: offered to the engine, counted
	// for dissemination.
	if token != 0 {
		docs = s.sent(client, token, at, docs)
	}
	for _, d := range docs[1:] {
		if d.class == attrib.ClassPrefetch {
			s.offerPrefetch(client, d, at)
		}
	}

	var linkBuf [128]byte
	for _, h := range hints {
		if path, ok := s.store.Path(h.doc); ok {
			w.Header().Add("Link", string(appendLinkHint(linkBuf[:0], path, h.p)))
			s.hintsSent.Add(1)
			s.met.hints.Inc()
		}
	}

	var written int64
	if len(docs) > 1 {
		bsp := s.tracer.StartChild("server.bundle", sp)
		written = s.serveBundle(w, docs, rungName)
		bsp.Finish()
		sp.SetAttr("kind", "bundle")
	} else {
		written = s.serveDoc(w, id)
		sp.SetAttr("kind", "doc")
		if prefetchP != "" {
			s.cfg.Attrib.Delivered(r.URL.Path, attrib.ClassPrefetch, written, docs[0].pMilli, rungName)
		}
	}
	s.met.respBytes.Observe(float64(written))
	elapsed := s.now().Sub(start)
	// The trace exemplar ties the latency bucket to a concrete request
	// inspectable at /debug/spans?trace=….
	s.met.latency.ObserveSpan(elapsed.Seconds(), sp)
	// Feed the governor the full demand-path latency (including any
	// admission queueing): its control loop is what brings the ladder
	// back down when this number recovers.
	s.cfg.Governor.Observe(elapsed)
}

type hint struct {
	doc webgraph.DocID
	p   float64
}

// appendLinkHint renders `</path>; rel="prefetch"; spec-p=0.420` onto dst.
func appendLinkHint(dst []byte, path string, p float64) []byte {
	dst = append(dst, '<')
	dst = append(dst, path...)
	dst = append(dst, `>; rel="prefetch"; spec-p=`...)
	return appendFixed3(dst, p)
}

// appendFixed3 appends p with three decimals, byte for byte what
// strconv.AppendFloat(dst, p, 'f', 3, 64) appends. strconv has no short
// path for a fixed number of decimals (it converts through its big
// decimal), so the usual case is rounded here in integers: p*1000 carries
// a relative error of 2^-53, under 2e-10 absolute below 1e6, so once its
// fraction is more than 1e-6 away from a half the side of the half it
// falls on is certain. Ties and near-ties (the estimator's count/occ
// quotients do hit exact ones, 0.0625 and 0.1875 among them, which round
// half-even), negatives including -0, NaN and anything from 1000 up go to
// strconv.
func appendFixed3(dst []byte, p float64) []byte {
	if m, ok := fixed3(p); ok {
		dst = strconv.AppendUint(dst, m/1000, 10)
		return append(dst, '.', byte('0'+m/100%10), byte('0'+m/10%10), byte('0'+m%10))
	}
	return strconv.AppendFloat(dst, p, 'f', 3, 64)
}

// fixed3 is p in thousandths, rounded as appendFixed3 prints it; ok is
// false for the cases that function leaves to strconv.
func fixed3(p float64) (m uint64, ok bool) {
	if math.Signbit(p) || !(p < 1000) {
		return 0, false
	}
	x := p * 1000
	whole := math.Floor(x)
	frac := x - whole
	if math.Abs(frac-0.5) <= 1e-6 {
		return 0, false
	}
	m = uint64(whole)
	if frac > 0.5 {
		m++
	}
	return m, true
}

// hintMilli is the probability, in thousandths, that a client reads off the
// hint appendLinkHint renders for p: what it compares with its threshold and
// would send back in Spec-Want, so what the ledger and the engine's offer
// hold for the document whichever way it travels.
func hintMilli(p float64) int64 {
	if m, ok := fixed3(p); ok {
		return attrib.ClampPMilli(int64(m))
	}
	v, _ := strconv.ParseFloat(string(appendFixed3(nil, p)), 64)
	return attrib.PMilli(clampProb(v))
}

// Demand priorities carried by HeaderPriority.
const (
	prioLow = iota - 1
	prioNormal
	prioHigh
)

// priorityOf parses the request's demand priority; unknown values are
// normal.
func priorityOf(r *http.Request) int {
	switch strings.ToLower(r.Header.Get(HeaderPriority)) {
	case "low":
		return prioLow
	case "high":
		return prioHigh
	}
	return prioNormal
}

// shedDemand answers a demand request with the overload-control 503:
// Retry-After so well-behaved clients back off, HeaderShed so replays
// can separate deliberate shedding from failure.
func (s *Server) shedDemand(w http.ResponseWriter, sp *obs.ActiveSpan, retryAfter int) {
	s.demandShed.Add(1)
	s.met.demandShed.Inc()
	sp.SetAttr("status", "503")
	sp.SetAttr("shed", "demand")
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	w.Header().Set(HeaderShed, overload.Demand.String())
	http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
}

// ServerOverloadStats reports the server's overload-control state: the
// ladder counters, the governor, and the admission controller. Zero
// values throughout when overload control is not configured.
type ServerOverloadStats struct {
	PushesSuppressed int64                  `json:"pushes_suppressed"`
	EmbedsSuppressed int64                  `json:"embeds_suppressed"`
	DemandShed       int64                  `json:"demand_shed"`
	Governor         overload.GovernorStats `json:"governor"`
	Admission        *overload.Stats        `json:"admission,omitempty"`
}

// SpeculativeShed is the total speculative work units the ladder shed:
// suppressed pushed documents, despeculated requests, and speculative
// admission rejections.
func (o ServerOverloadStats) SpeculativeShed() int64 {
	n := o.PushesSuppressed + o.EmbedsSuppressed
	if o.Admission != nil {
		n += o.Admission.Speculative.Rejected
	}
	return n
}

// TotalDemandShed is every demand request refused with 503: ladder sheds
// (which include admission rejections counted by shedDemand).
func (o ServerOverloadStats) TotalDemandShed() int64 { return o.DemandShed }

// OverloadStats snapshots the server's overload control.
func (s *Server) OverloadStats() ServerOverloadStats {
	st := ServerOverloadStats{
		PushesSuppressed: s.pushSuppressed.Load(),
		EmbedsSuppressed: s.embedSuppressed.Load(),
		DemandShed:       s.demandShed.Load(),
		Governor:         s.cfg.Governor.Stats(),
	}
	if s.cfg.Admission != nil {
		adm := s.cfg.Admission.Stats()
		st.Admission = &adm
	}
	return st
}

// overloadEnabled reports whether any overload control is configured.
func (s *Server) overloadEnabled() bool {
	return s.cfg.Admission != nil || s.cfg.Governor != nil
}

func (s *Server) serveDoc(w http.ResponseWriter, id webgraph.DocID) int64 {
	body, ok := s.store.Content(id)
	if !ok {
		http.Error(w, "document vanished", http.StatusInternalServerError)
		return 0
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	n, _ := w.Write(body)
	s.bytesSent.Add(int64(n))
	s.met.bytesSent.Add(int64(n))
	return int64(n)
}

// bundleDoc is one document of a response: what it is delivered as — ""
// for a plain demand answer, attrib.ClassPush for a part the server chose,
// attrib.ClassPrefetch for one the client would have or has asked for — and
// the probability behind a speculative delivery, in thousandths. inline
// marks a prefetch sent in place of a hint: the client did not name it, so
// the part states its probability, which one named by Spec-Want does not.
type bundleDoc struct {
	doc    webgraph.DocID
	class  string
	pMilli int64
	inline bool
}

// offerPrefetch does for a document riding behind the requested one what the
// prefetch request of its own it replaces would have done: the engine is
// offered it, and dissemination counts the delivery.
func (s *Server) offerPrefetch(client trace.ClientID, d bundleDoc, at time.Time) {
	s.engine.Offer(client, d.doc, at, d.pMilli)
	size, _ := s.store.Size(d.doc)
	s.repl.Record(d.doc, size, isRemote(client))
}

// sent enters the documents of docs in client's session set and keeps in
// docs the requested one and the parts behind it the set did not hold yet.
func (s *Server) sent(client trace.ClientID, token uint64, at time.Time, docs []bundleDoc) []bundleDoc {
	var idBuf [1 + maxWant]webgraph.DocID
	ids := idBuf[:0]
	for _, d := range docs {
		ids = append(ids, d.doc)
	}
	fresh := s.engine.Sent(client, token, at, ids)
	if len(fresh) == len(docs) {
		return docs
	}
	// fresh is ids in order with the held ones out, and no document is in
	// docs twice.
	kept := docs[:1]
	if len(fresh) > 0 && fresh[0] == docs[0].doc {
		fresh = fresh[1:]
	}
	for _, d := range docs[1:] {
		if len(fresh) > 0 && fresh[0] == d.doc {
			kept = append(kept, d)
			fresh = fresh[1:]
		}
	}
	return kept
}

// parseWant resolves a Spec-Want list onto docs, whose first entry is the
// requested document: at most limit more, in list order, skipping paths the
// store does not know and documents already in docs. The header crosses the
// wire like the others parse.go guards, so only maxWantItems items are
// looked at and probabilities arrive clamped.
func parseWant(docs []bundleDoc, list string, store Store, limit int) []bundleDoc {
	limit += len(docs)
	for items := 0; list != "" && items < maxWantItems && len(docs) < limit; items++ {
		var path string
		var pMilli int64
		path, pMilli, list = nextWant(list)
		id, ok := store.Lookup(path)
		if !ok || slices.ContainsFunc(docs, func(d bundleDoc) bool { return d.doc == id }) {
			continue
		}
		docs = append(docs, bundleDoc{doc: id, class: attrib.ClassPrefetch, pMilli: pMilli})
	}
	return docs
}

// framedPart is one gathered bundle part: its document, its body and where
// its framed delimiter-and-headers end in the scratch.
type framedPart struct {
	bundleDoc
	path   string
	body   []byte
	hdrEnd int
}

// bundleScratch holds one response's part list and framing bytes — and the
// bodies between them, for a bundle small enough to go out whole; pooled, so
// a steady server frames bundles without allocating.
type bundleScratch struct {
	parts []framedPart
	hdr   []byte
}

var bundleScratchPool = sync.Pool{New: func() any { return new(bundleScratch) }}

// gatherMax is the most body bytes a bundle may carry and still be copied
// into the scratch and written in one call. Under it the copy is cheaper
// than a Write per piece (a page and the handful of small documents behind
// it, which is every speculative answer of a hybrid server); over it the
// copy costs more than the calls save and, the scratch being pooled, would
// stay allocated at the size of the largest bundle ever served. A constant,
// not an option: both sides of it are measured (DESIGN §10) and nothing a
// deployment knows moves the crossover.
const gatherMax = 256 << 10

// serveBundle writes a multipart/mixed response: the requested document
// first, then each document riding behind it, every part carrying its
// Content-Location and Content-Length (and, when the server chose it, the
// Spec-P probability that drove the choice; what a prefetch asked for goes
// unmarked). The parts are gathered before anything is written, so the
// response declares its Content-Length and net/http does not chunk it; up
// to gatherMax of bodies they are framed with their bodies and leave in one
// Write, beyond it bodies are written from where the store keeps them, piece
// by piece. Returns the body bytes written.
func (s *Server) serveBundle(w http.ResponseWriter, docs []bundleDoc, rung string) int64 {
	sc := bundleScratchPool.Get().(*bundleScratch)
	defer func() {
		clear(sc.parts) // the pool must not pin document bodies
		sc.parts, sc.hdr = sc.parts[:0], sc.hdr[:0]
		bundleScratchPool.Put(sc)
	}()
	size := 0
	for _, d := range docs {
		path, ok := s.store.Path(d.doc)
		if !ok {
			continue
		}
		body, ok := s.store.Content(d.doc)
		if !ok {
			continue
		}
		sc.parts = append(sc.parts, framedPart{bundleDoc: d, path: path, body: body})
		size += len(body)
	}
	whole := size <= gatherMax
	for i := range sc.parts {
		p := &sc.parts[i]
		sc.hdr = appendPartHeader(sc.hdr, i == 0, p.path, len(p.body), p.bundleDoc)
		p.hdrEnd = len(sc.hdr)
		if whole {
			sc.hdr = append(sc.hdr, p.body...)
		}
	}
	sc.hdr = appendBundleClose(sc.hdr, len(sc.parts) == 0)
	length := len(sc.hdr)
	if !whole {
		length += size
	}

	w.Header().Set("Content-Type", bundleContentType)
	w.Header().Set("Content-Length", strconv.Itoa(length))
	s.bundles.Add(1)
	s.met.bundles.Inc()

	var total int64
	if whole {
		// Counted before the bytes leave, and as sent in full: the client can
		// have the whole answer before Write returns, and whoever looks at the
		// counters or the ledger then must find it there. (Piece by piece,
		// the closing delimiter going last sees to the same.)
		for _, p := range sc.parts {
			total += s.sentPart(p, len(p.body), rung)
		}
		_, _ = w.Write(sc.hdr)
		return total
	}
	from := 0
	for _, p := range sc.parts {
		_, _ = w.Write(sc.hdr[from:p.hdrEnd])
		from = p.hdrEnd
		n, _ := w.Write(p.body)
		total += s.sentPart(p, n, rung)
	}
	_, _ = w.Write(sc.hdr[from:])
	return total
}

// sentPart accounts for n body bytes of p having been written.
func (s *Server) sentPart(p framedPart, n int, rung string) int64 {
	s.bytesSent.Add(int64(n))
	s.met.bytesSent.Add(int64(n))
	if p.class == attrib.ClassPush {
		s.docsPushed.Add(1)
		s.met.pushedDocs.Inc()
		s.met.pushedBytes.Add(int64(n))
	}
	if p.class != "" {
		s.cfg.Attrib.Delivered(p.path, p.class, int64(n), p.pMilli, rung)
	}
	return int64(n)
}

// ingestAttrib resolves client's Spec-Attrib feedback tokens
// ("c:<class>:<path>" consumed, "w:<class>:<path>" wasted). A prefetch-class
// token settles the engine's offer of that document to that client — this
// is what trains the estimator for prefetched documents: consumed, the
// access is recorded as of its delivery; wasted, or naming a document never
// offered, nothing is. Every token also resolves a delivery in the server's
// ledger, when it keeps one, using the store's current size for the byte
// amount and the offer's probability for the calibration table. Tokens are
// validated (known kind, known class, plausible path) and capped, so a
// hostile header cannot poison the ledger's class map or grind the store
// with lookups.
func (s *Server) ingestAttrib(client trace.ClientID, header string) {
	for n := 0; n < maxAttribTokens; n++ {
		var tok string
		if tok, header = nextAttribToken(header); tok == "" {
			return
		}
		consumed, class, path, ok := parseAttribToken(tok)
		if !ok {
			continue
		}
		id, ok := s.store.Lookup(path)
		if !ok {
			continue
		}
		pMilli := attrib.PUnknown
		if class == attrib.ClassPrefetch {
			if p, ok := s.engine.Settle(client, id, consumed); ok {
				pMilli = p
			}
		}
		size, _ := s.store.Size(id)
		s.cfg.Attrib.Resolved(path, class, size, pMilli, consumed)
	}
}

func (s *Server) serveStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	st := struct {
		Server   ServerStats
		Engine   core.Stats
		Overload *ServerOverloadStats `json:",omitempty"`
		Attrib   *attrib.Report       `json:",omitempty"`
		Estguard *estguard.Stats      `json:",omitempty"`
	}{Server: s.Stats(), Engine: s.engine.Stats()}
	if s.overloadEnabled() {
		ov := s.OverloadStats()
		st.Overload = &ov
	}
	st.Attrib = s.cfg.Attrib.Report(20)
	if g := s.engine.Guard(); g != nil {
		gs := g.StatsSnapshot()
		gs.SpecSuppressed = s.quarSuppressed.Load()
		st.Estguard = &gs
	}
	_ = json.NewEncoder(w).Encode(st)
}

// serveReplicas reports the paths a dissemination proxy should replicate
// within the given byte budget, ranked by remote popularity.
func (s *Server) serveReplicas(w http.ResponseWriter, r *http.Request) {
	budget, err := strconv.ParseInt(r.URL.Query().Get("budget"), 10, 64)
	if err != nil || budget <= 0 {
		http.Error(w, "budget must be a positive integer", http.StatusBadRequest)
		return
	}
	var paths []string
	for _, id := range s.repl.ReplicaSet(budget) {
		if p, ok := s.store.Path(id); ok {
			paths = append(paths, p)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(paths)
}

func clientID(r *http.Request) trace.ClientID {
	if c := r.Header.Get(HeaderClient); c != "" {
		return trace.ClientID(c)
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i > 0 {
		host = host[:i]
	}
	return trace.ClientID(host)
}

// isRemote classifies a client as outside the organization, by the same
// naming convention the trace generator uses.
func isRemote(c trace.ClientID) bool {
	return !strings.HasSuffix(string(c), ".local")
}
