//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"specweb/internal/attrib"
	"specweb/internal/httpspec"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// probe is the tracing state shared by every wrapper of one stack. While
// on is false the wrappers only count serves; end-to-end metrics come
// from passes measured that way. The traced pass installs buf and n
// before it turns on on.
type probe struct {
	on  atomic.Bool
	buf *spanBuf
	n   *probeCounts

	// pending maps a request's traceparent header to the round-trip span
	// that sent it, so a handler reached over TCP can name its parent
	// without the harness adding a byte to the wire.
	pending sync.Map // string -> spanRef
	// inflight counts handlers still running; the traced pass waits
	// for zero before reading the spans.
	inflight atomic.Int64

	// Inputs of the layer replay, captured by the handler wrapper.
	captured []servedReq
	capN     atomic.Int64
}

// probeCounts are the counts one traced pass takes at the same boundaries
// as its spans.
type probeCounts struct {
	roundTrips      atomic.Int64
	reqHeaderBytes  atomic.Int64
	respHeaderBytes atomic.Int64
	respBodyBytes   atomic.Int64
	digestBytes     atomic.Int64
	writeCalls      atomic.Int64
	contentCalls    atomic.Int64
	renders         atomic.Int64
	lookups         atomic.Int64
}

type spanRef struct{ span, req int32 }

// servedReq is what one request looked like to the server.
type servedReq struct {
	path, client, have, attrib, prefetch, accept string
}

func (p *probe) capture(r *http.Request) {
	i := p.capN.Add(1) - 1
	if i >= int64(len(p.captured)) {
		return
	}
	p.captured[i] = servedReq{
		path:     r.URL.Path,
		client:   r.Header.Get(httpspec.HeaderClient),
		have:     r.Header.Get(httpspec.HeaderHave),
		attrib:   r.Header.Get(httpspec.HeaderAttrib),
		prefetch: r.Header.Get(httpspec.HeaderPrefetch),
		accept:   r.Header.Get(httpspec.HeaderAccept),
	}
}

func (p *probe) capturedReqs() []servedReq {
	n := p.capN.Load()
	if n > int64(len(p.captured)) {
		n = int64(len(p.captured))
	}
	return p.captured[:n]
}

// headerBytes is the wire size of a header block: "Key: value\r\n" each.
func headerBytes(h http.Header) int64 {
	var n int64
	for k, vs := range h {
		for _, v := range vs {
			n += int64(len(k) + len(v) + 4)
		}
	}
	return n
}

// servedCounter wraps the server: it counts every request that reaches
// ServeHTTP (the one definition of server load) and, while tracing,
// records the server.serve span and the response writes under it.
type servedCounter struct {
	srv    http.Handler
	probe  *probe
	serves atomic.Int64
}

// ServeHTTP is the entry over TCP: the parent span is looked up from the
// traceparent the client sent.
func (h *servedCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ref := spanRef{-1, -1}
	if h.probe.on.Load() {
		if v, ok := h.probe.pending.LoadAndDelete(r.Header.Get(obs.TraceparentHeader)); ok {
			ref = v.(spanRef)
		}
	}
	h.serve(w, r, ref)
}

func (h *servedCounter) serve(w http.ResponseWriter, r *http.Request, parent spanRef) {
	h.serves.Add(1)
	p := h.probe
	if !p.on.Load() {
		h.srv.ServeHTTP(w, r)
		return
	}
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	p.capture(r)
	sp := p.buf.begin(kindServe, parent.req, parent.span)
	h.srv.ServeHTTP(&tracedWriter{ResponseWriter: w, probe: p, ref: spanRef{sp, parent.req}}, r)
	p.buf.end(sp)
}

type tracedWriter struct {
	http.ResponseWriter
	probe *probe
	ref   spanRef
}

func (w *tracedWriter) Write(b []byte) (int, error) {
	w.probe.n.writeCalls.Add(1)
	sp := w.probe.buf.begin(kindWrite, w.ref.req, w.ref.span)
	n, err := w.ResponseWriter.Write(b)
	w.probe.buf.end(sp)
	return n, err
}

// tracedStore decorates the document store. It always remembers the
// address of the body it last returned per document, so a fresh render is
// recognisable by slice identity; spans and counts are taken only while
// tracing. The address is kept as an integer so that it does not keep an
// evicted body alive.
type tracedStore struct {
	inner httpspec.Store
	probe *probe
	last  []atomic.Uintptr
}

func (s *tracedStore) Lookup(path string) (webgraph.DocID, bool) {
	if s.probe.on.Load() {
		s.probe.n.lookups.Add(1)
	}
	return s.inner.Lookup(path)
}

func (s *tracedStore) Path(id webgraph.DocID) (string, bool) { return s.inner.Path(id) }
func (s *tracedStore) Size(id webgraph.DocID) (int64, bool)  { return s.inner.Size(id) }

func (s *tracedStore) Content(id webgraph.DocID) ([]byte, bool) {
	tracing := s.probe.on.Load()
	sp := int32(-1)
	if tracing {
		sp = s.probe.buf.begin(kindContent, -1, -1)
	}
	body, ok := s.inner.Content(id)
	if tracing {
		s.probe.buf.end(sp)
		s.probe.n.contentCalls.Add(1)
	}
	if ok && len(body) > 0 && int(id) < len(s.last) {
		addr := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
		if s.last[id].Swap(addr) != addr && tracing {
			s.probe.n.renders.Add(1)
		}
	}
	return body, ok
}

// lane is one worker's connection: its own http.Client over either the
// in-process transport or one keep-alive TCP connection.
type lane struct {
	probe   *probe
	handler *servedCounter    // in-process target
	wire    http.RoundTripper // TCP transport, nil in-process
	hc      *http.Client

	// The driver sets these around each Client.Get on this lane while
	// tracing; the lane is driven by one goroutine at a time.
	curGet int32
	curReq int32
}

func (l *lane) RoundTrip(req *http.Request) (*http.Response, error) {
	p := l.probe
	if !p.on.Load() {
		if l.wire != nil {
			return l.wire.RoundTrip(req)
		}
		return l.inProcess(req, spanRef{-1, -1})
	}
	p.n.roundTrips.Add(1)
	p.n.reqHeaderBytes.Add(headerBytes(req.Header))
	p.n.digestBytes.Add(int64(len(req.Header.Get(httpspec.HeaderHave))))
	sp := p.buf.begin(kindRoundTrip, l.curReq, l.curGet)
	ref := spanRef{sp, l.curReq}
	var resp *http.Response
	var err error
	if l.wire != nil {
		tp := req.Header.Get(obs.TraceparentHeader)
		p.pending.Store(tp, ref)
		resp, err = l.wire.RoundTrip(req)
		p.pending.Delete(tp)
	} else {
		resp, err = l.inProcess(req, ref)
	}
	p.buf.end(sp)
	if err != nil {
		return nil, err
	}
	p.n.respHeaderBytes.Add(headerBytes(resp.Header))
	resp.Body = &tracedBody{rc: resp.Body, lane: l, span: -1}
	return resp, nil
}

// responseBuffer is the ResponseWriter of the in-process transport.
type responseBuffer struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *responseBuffer) Header() http.Header { return r.header }

func (r *responseBuffer) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *responseBuffer) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

// inProcess calls the handler on the caller's goroutine: no sockets, so
// the round trip's self time is the buffer copy and nothing else.
func (l *lane) inProcess(req *http.Request, parent spanRef) (*http.Response, error) {
	rec := &responseBuffer{header: make(http.Header)}
	l.handler.serve(rec, req, parent)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.status, http.StatusText(rec.status)),
		StatusCode:    rec.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// tracedBody times the reads of one response body. The reads are spread
// between the client's own parsing, so the span is recorded compressed:
// it starts at the first read and lasts the sum of the read calls.
type tracedBody struct {
	rc    io.ReadCloser
	lane  *lane
	span  int32
	spent int64
	bytes int64
}

func (b *tracedBody) Read(p []byte) (int, error) {
	buf := b.lane.probe.buf
	if b.span < 0 {
		b.span = buf.begin(kindBody, b.lane.curReq, b.lane.curGet)
	}
	start := buf.now()
	n, err := b.rc.Read(p)
	b.spent += buf.now() - start
	b.bytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	if b.span >= 0 {
		s := b.lane.probe.buf.at(b.span)
		s.End = s.Start + b.spent
	}
	b.lane.probe.n.respBodyBytes.Add(b.bytes)
	return b.rc.Close()
}

// benchClient is one trace client with its session counter.
type benchClient struct {
	c     *httpspec.Client
	lane  int
	since int // requests since the last session purge
}

// stack is one arm's live system: server, optional TCP listener, lanes
// and clients, all on a virtual clock the driver advances.
type stack struct {
	srv       *httpspec.Server
	served    *servedCounter
	probe     *probe
	clientLed *attrib.Ledger // client side, nil on the baseline arm
	admission *overload.Controller
	lanes     [workers]*lane
	clients   []*benchClient
	vnow      atomic.Int64

	httpSrv   *http.Server
	serveDone chan error
}

func (s *stack) clock() time.Time { return time.Unix(0, s.vnow.Load()) }

// laneOf assigns a client to a lane by a stable hash, so the partition
// does not depend on trace position.
func laneOf(id trace.ClientID) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % workers)
}

// buildStack stands the system up the way cmd/specd does: default server
// config, a server-side attribution ledger of twice the site, private
// metrics registry and tracer. spec=false builds the baseline arm: the
// same server, clients that neither accept bundles nor prefetch.
func buildStack(w workload, wd *world, spec bool) (*stack, error) {
	mode, err := httpspec.ParseMode(w.mode)
	if err != nil {
		return nil, err
	}
	st := &stack{probe: &probe{}}
	st.vnow.Store(wd.tr.Requests[0].Time.UnixNano())

	site := httpspec.NewSiteStore(wd.site)
	site.SetClock(st.clock)
	store := &tracedStore{inner: site, probe: st.probe, last: make([]atomic.Uintptr, wd.site.NumDocs())}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	cfg := httpspec.DefaultServerConfig()
	cfg.Mode = mode
	cfg.Clock = st.clock
	cfg.Metrics = reg
	cfg.Tracer = tracer
	if spec {
		cfg.Attrib = attrib.NewLedger(2*wd.site.NumDocs(), reg)
		st.clientLed = attrib.NewLedger(2*wd.site.NumDocs(), obs.NewRegistry())
	}
	if w.admission {
		// Static slots well above the connection count: admission runs on
		// every request but never has a reason to queue or shed.
		st.admission = overload.NewController(overload.Config{DemandSlots: 8 * workers, Metrics: reg})
		cfg.Admission = st.admission
	}
	st.srv, err = httpspec.NewServer(store, cfg)
	if err != nil {
		return nil, err
	}
	st.served = &servedCounter{srv: st.srv, probe: st.probe}

	base := "http://bench.invalid"
	if w.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listening on loopback: %w", err)
		}
		st.httpSrv = &http.Server{Handler: st.served}
		st.serveDone = make(chan error, 1)
		go func() { st.serveDone <- st.httpSrv.Serve(ln) }()
		base = "http://" + ln.Addr().String()
	}
	for i := range st.lanes {
		l := &lane{probe: st.probe, handler: st.served, curGet: -1, curReq: -1}
		if w.wire {
			l.wire = &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}
		}
		l.hc = &http.Client{Transport: l}
		st.lanes[i] = l
	}
	st.clients = make([]*benchClient, len(wd.clients))
	for i, id := range wd.clients {
		ln := laneOf(id)
		ccfg := httpspec.ClientConfig{ID: string(id), HTTP: st.lanes[ln].hc, Tracer: tracer}
		if spec {
			ccfg.AcceptBundles = true
			ccfg.Cooperative = w.cooperative
			ccfg.PrefetchThreshold = w.prefetch
			ccfg.Attrib = st.clientLed
			ccfg.AttribFeedback = true
		}
		st.clients[i] = &benchClient{c: httpspec.NewClient(base, ccfg), lane: ln}
	}
	return st, nil
}

// close stops the listener and its connections and waits for the serve
// loop to return.
func (s *stack) close() error {
	if s == nil || s.httpSrv == nil {
		return nil
	}
	for _, l := range s.lanes {
		l.wire.(*http.Transport).CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.serveDone; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.httpSrv = nil
	return err
}

// purgeSessions ends every client's session: each pass over the measured
// trace starts from empty caches.
func (s *stack) purgeSessions() {
	for _, cl := range s.clients {
		cl.c.EndSession()
		cl.since = 0
	}
}
