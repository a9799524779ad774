package httpspec

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/obs"
	"specweb/internal/stats"
	"specweb/internal/webgraph"
)

// BenchmarkServerRoundTrip measures a full HTTP GET through the speculative
// server (trained, push mode, bundle-accepting client).
func BenchmarkServerRoundTrip(b *testing.B) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	now := time.Date(1995, time.June, 1, 9, 0, 0, 0, time.UTC)
	cfg := DefaultServerConfig()
	cfg.Mode = ModePush
	cfg.Engine.MinOccurrences = 2
	cfg.Engine.Tp = 0.3
	cfg.Clock = func() time.Time { return now }
	srv, err := NewServer(NewSiteStore(site), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var page *webgraph.Document
	for i := range site.Docs {
		if site.Docs[i].Kind == webgraph.Page && len(site.Docs[i].Embedded) > 0 {
			page = &site.Docs[i]
			break
		}
	}
	if page == nil {
		b.Fatal("no page with embedded objects")
	}
	// Train so responses carry bundles.
	for i := 0; i < 10; i++ {
		c := NewClient(ts.URL, ClientConfig{ID: "t"})
		_, _, _ = c.Get(page.Path)
		for _, e := range page.Embedded {
			now = now.Add(300 * time.Millisecond)
			_, _, _ = c.Get(site.Doc(e).Path)
		}
		now = now.Add(time.Hour)
	}
	srv.Engine().Refresh(now)

	op := func() {
		c := NewClient(ts.URL, ClientConfig{ID: "bench", AcceptBundles: true})
		if _, _, err := c.Get(page.Path); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(len(page.Embedded)), "embedded_docs")
	// Measured 96, some eighty of them net/http's on either side of the
	// loopback connection; one to spare.
	allocCeiling(b, 97, op)
}

// BenchmarkPrefetchBatch is one followed response: a demand fetch whose
// answer carries three hints above the client's threshold, then the one
// prefetch request that brings all three back as a bundle and into the
// cache — client → in-process server → cache, two round trips for four
// documents.
func BenchmarkPrefetchBatch(b *testing.B) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	now := time.Date(1995, time.June, 1, 9, 0, 0, 0, time.UTC)
	cfg := DefaultServerConfig()
	cfg.Mode = ModeHints
	cfg.Clock = func() time.Time { return now }
	cfg.Metrics = obs.NewRegistry()
	srv, err := NewServer(NewSiteStore(site), cfg)
	if err != nil {
		b.Fatal(err)
	}
	page := &site.Docs[0]
	hinted := []*webgraph.Document{&site.Docs[1], &site.Docs[2], &site.Docs[3]}
	if err := srv.Engine().WarmStart(hintSnapshot(page, hinted), now); err != nil {
		b.Fatal(err)
	}
	transport := &handlerTransport{h: srv}
	c := NewClient("http://origin", ClientConfig{ID: "bench", PrefetchThreshold: 0.3,
		HTTP: &http.Client{Transport: transport}, Tracer: obs.NewTracer(64)})
	op := func() {
		c.EndSession()
		if _, _, err := c.Get(page.Path); err != nil {
			b.Fatal(err)
		}
	}
	op()
	if st := c.Stats(); st.Prefetched != 3 || st.PrefetchRoundTrips != 1 || transport.served.Load() != 2 {
		b.Fatalf("one followed response took %d requests: %+v", transport.served.Load(), st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	// The offer path is on it: every session's three offers were settled by
	// the next one's first fetch, and only demand fetches were recorded.
	if st := srv.Engine().Stats(); st.OffersOutstanding != 3 || st.Recorded != transport.served.Load()/2 {
		b.Fatalf("engine %+v after %d requests", st, transport.served.Load())
	}
	// Measured 84: some 44 for the demand fetch and its three hints — two of
	// them the Spec-Attrib header reporting the three prefetches the session
	// before left unused, which the server settles in place — and 41 for the
	// one request that brings the three documents back, where a prefetch
	// request of its own costs some 34 a document. One to spare.
	allocCeiling(b, 85, op)
}

// BenchmarkInlineBundle is BenchmarkPrefetchBatch's followed response for a
// client that stated its threshold to a hybrid server: the three documents
// ride behind the demand answer — client → in-process server → cache, one
// round trip for four documents.
func BenchmarkInlineBundle(b *testing.B) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	now := time.Date(1995, time.June, 1, 9, 0, 0, 0, time.UTC)
	cfg := DefaultServerConfig()
	cfg.Clock = func() time.Time { return now }
	cfg.Metrics = obs.NewRegistry()
	srv, err := NewServer(NewSiteStore(site), cfg)
	if err != nil {
		b.Fatal(err)
	}
	page := &site.Docs[0]
	hinted := []*webgraph.Document{&site.Docs[1], &site.Docs[2], &site.Docs[3]}
	if err := srv.Engine().WarmStart(hintSnapshot(page, hinted), now); err != nil {
		b.Fatal(err)
	}
	transport := &handlerTransport{h: srv}
	c := NewClient("http://origin", ClientConfig{ID: "bench", AcceptBundles: true, PrefetchThreshold: 0.3,
		HTTP: &http.Client{Transport: transport}, Tracer: obs.NewTracer(64)})
	op := func() {
		c.EndSession()
		if _, _, err := c.Get(page.Path); err != nil {
			b.Fatal(err)
		}
	}
	op()
	if st := c.Stats(); st.Prefetched != 3 || st.PrefetchRoundTrips != 0 || transport.served.Load() != 1 {
		b.Fatalf("one followed response took %d requests: %+v", transport.served.Load(), st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	// As in BenchmarkPrefetchBatch, every session's three offers were settled
	// by the next one's only fetch.
	if st := srv.Engine().Stats(); st.OffersOutstanding != 3 || st.Recorded != transport.served.Load() {
		b.Fatalf("engine %+v after %d requests", st, transport.served.Load())
	}
	// Measured 44, against BenchmarkPrefetchBatch's 84 for the same four
	// documents in two round trips: the second request and its answer are
	// what is saved. One to spare.
	allocCeiling(b, 45, op)
}

// allocCeiling fails a benchmark whose op allocates more than max times a
// call: the wire path's allocation contract, checked by `make bench-smoke`.
func allocCeiling(b *testing.B, max float64, op func()) {
	b.Helper()
	b.StopTimer() // the check's own runs are not the benchmark's
	if got := testing.AllocsPerRun(20, op); got > max {
		b.Fatalf("%v allocs/op, ceiling %v", got, max)
	}
}

// BenchmarkReadBody reads a body in both shapes readBody takes in:
// memory, the io.NopCloser(bytes.NewReader) every in-process transport
// hands over, which writes itself into an uncleared buffer; and stream, the
// same bytes with WriterTo hidden, as a socket delivers them, read into a
// buffer sized from the declared length (or through the growing read an
// undeclared one takes).
func BenchmarkReadBody(b *testing.B) {
	for _, tc := range []struct {
		name     string
		size     int
		stream   bool
		declared bool
		ceiling  float64
	}{
		{"memory/64KiB", 64 << 10, false, true, 2}, // the buffer and its writer
		{"memory/512KiB", 512 << 10, false, true, 2},
		{"stream/64KiB", 64 << 10, true, true, 2}, // the buffer and the EOF probe
		{"stream/512KiB", 512 << 10, true, true, 2},
		{"stream/undeclared-64KiB", 64 << 10, true, false, 32},
	} {
		b.Run(tc.name, func(b *testing.B) {
			data := bytes.Repeat([]byte("x"), tc.size)
			br := bytes.NewReader(data)
			body := io.NopCloser(br)
			if tc.stream {
				body = io.NopCloser(struct{ io.Reader }{br})
			}
			declared := int64(len(data))
			if !tc.declared {
				declared = -1
			}
			op := func() {
				br.Reset(data)
				if got, err := readBody(body, declared); err != nil || len(got) != len(data) {
					b.Fatal(len(got), err)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				op()
			}
			allocCeiling(b, tc.ceiling, op)
		})
	}
}

// BenchmarkRenderBody renders a 100 kB object, the store's work on an
// LRU miss: one allocation, the body itself.
func BenchmarkRenderBody(b *testing.B) {
	d := &webgraph.Document{ID: 4242, Kind: webgraph.Object, Path: "/media/o4242.mpg", Size: 100_000}
	op := func() {
		if got := renderBody(d); len(got) != int(d.Size) {
			b.Fatal(len(got))
		}
	}
	b.ReportAllocs()
	b.SetBytes(d.Size)
	for i := 0; i < b.N; i++ {
		op()
	}
	allocCeiling(b, 1, op)
}

// benchBundle frames a requested document and three pushes of 8 KiB each,
// the way serveBundle does.
func benchBundle() []byte {
	body := bytes.Repeat([]byte("y"), 8<<10)
	var raw []byte
	for i := 0; i < 4; i++ {
		var part bundleDoc
		if i > 0 {
			part = bundleDoc{class: attrib.ClassPush, pMilli: 420}
		}
		raw = appendPartHeader(raw, i == 0, "/doc/"+strconv.Itoa(i), len(body), part)
		raw = append(raw, body...)
	}
	return appendBundleClose(raw, false)
}

// BenchmarkClientIngestBundle is bytes → cache: one sized read of a
// four-part bundle, walked in place into a session's empty cache.
func BenchmarkClientIngestBundle(b *testing.B) {
	raw := benchBundle()
	r := bytes.NewReader(raw)
	resp := &http.Response{Body: io.NopCloser(r), ContentLength: int64(len(raw)), Header: http.Header{}}
	c := NewClient("http://unused", ClientConfig{AcceptBundles: true})
	op := func() {
		c.EndSession()
		r.Reset(raw)
		if _, err := c.ingestBundle("/doc/0", resp, bundleBoundary); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		op()
	}
	if st := c.Stats(); st.Pushed != 3*int64(b.N) {
		b.Fatalf("pushed %d parts in %d bundles", st.Pushed, b.N)
	}
	// The buffer, the EOF probe, the walker's delimiter, four path strings
	// and the session's fresh cache map: nine, and one to spare.
	allocCeiling(b, 10, op)
}

// discardResponse is a ResponseWriter that keeps only the headers and counts
// the writes.
type discardResponse struct {
	h      http.Header
	writes int
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.writes++
	return len(p), nil
}

// BenchmarkServeBundle frames and writes a bundle, store warm, into a
// discarding writer, on either side of gatherMax: a page with its embedded
// objects as pushes leaves in one Write, the same with the site's largest
// document behind it piece by piece — a delimiter-and-headers and a body per
// part, and the closing delimiter.
func BenchmarkServeBundle(b *testing.B) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(NewSiteStore(site), DefaultServerConfig())
	if err != nil {
		b.Fatal(err)
	}
	var page *webgraph.Document
	big := &site.Docs[0]
	for i := range site.Docs {
		d := &site.Docs[i]
		if page == nil && d.Kind == webgraph.Page && len(d.Embedded) >= 2 {
			page = d
		}
		if d.Size > big.Size {
			big = d
		}
	}
	if page == nil || big.Size <= gatherMax {
		b.Fatalf("need a page with two embedded objects and a document above %d bytes", gatherMax)
	}
	docs := []bundleDoc{{doc: page.ID}}
	for _, e := range page.Embedded {
		docs = append(docs, bundleDoc{doc: e, class: attrib.ClassPush, pMilli: 900})
	}
	for _, tc := range []struct {
		name   string
		docs   []bundleDoc
		writes int
	}{
		{"gathered", docs, 1},
		{"piecewise", append(docs[:len(docs):len(docs)], bundleDoc{doc: big.ID, class: attrib.ClassPush, pMilli: 800}), 2*(len(docs)+1) + 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := &discardResponse{h: http.Header{}}
			var written int64
			op := func() { written = srv.serveBundle(w, tc.docs, "") }
			op()
			if w.writes != tc.writes {
				b.Fatalf("%d writes for %d parts of %d bytes, want %d", w.writes, len(tc.docs), written, tc.writes)
			}
			b.ReportAllocs()
			b.SetBytes(written)
			for i := 0; i < b.N; i++ {
				op()
			}
			// Two header values and the formatted Content-Length; the framing
			// scratch is pooled.
			allocCeiling(b, 3, op)
		})
	}
}
