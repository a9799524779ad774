package httpspec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"specweb/internal/attrib"
	"specweb/internal/obs"
	"specweb/internal/resilience"
	"specweb/internal/stats"
	"specweb/internal/webgraph"
)

// refPart is a bundle part as mime/multipart sees it — the reference the
// in-place walker is held to.
type refPart struct {
	loc, pushed, specP string
	body               []byte
}

// multipartParts parses a bundle with mime/multipart.Reader (raw parts:
// the walker does no transfer decoding either).
func multipartParts(data []byte, boundary string) ([]refPart, error) {
	mr := multipart.NewReader(bytes.NewReader(data), boundary)
	var out []refPart
	for {
		p, err := mr.NextRawPart()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(p)
		if err != nil {
			return nil, err
		}
		out = append(out, refPart{p.Header.Get("Content-Location"),
			p.Header.Get(HeaderPushed), p.Header.Get(HeaderSpecP), body})
	}
}

func walkParts(data []byte, boundary string) ([]bundlePart, error) {
	bw, err := newBundleWalker(data, boundary)
	if err != nil {
		return nil, err
	}
	var out []bundlePart
	for {
		p, ok, err := bw.next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, p)
	}
}

func sameParts(t *testing.T, got []bundlePart, want []refPart) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("walker found %d parts, mime/multipart %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if string(g.loc) != w.loc || string(g.pushed) != w.pushed || string(g.specP) != w.specP {
			t.Fatalf("part %d headers: walker (%q, %q, %q), mime/multipart (%q, %q, %q)",
				i, g.loc, g.pushed, g.specP, w.loc, w.pushed, w.specP)
		}
		if !bytes.Equal(g.body, w.body) {
			t.Fatalf("part %d body: walker %q, mime/multipart %q", i, g.body, w.body)
		}
	}
}

// inside reports whether s is a sub-slice of data (nil: an absent header).
func inside(s, data []byte) bool {
	if s == nil {
		return true
	}
	off := uintptr(unsafe.Pointer(unsafe.SliceData(s))) - uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return off <= uintptr(len(data)) && uintptr(len(s)) <= uintptr(len(data))-off
}

// Length modes for writerBundle.
const (
	noLength = iota
	trueLength
	lyingLength
)

// writerBundle frames parts with mime/multipart.Writer. Without a per-part
// Content-Length the walker must scan; with a lying one it must notice.
func writerBundle(t testing.TB, boundary string, lengths int, bodies ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(boundary); err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		hdr := textproto.MIMEHeader{}
		hdr.Set("Content-Location", "/doc/"+strconv.Itoa(i))
		switch lengths {
		case trueLength:
			hdr.Set("Content-Length", strconv.Itoa(len(body)))
		case lyingLength:
			hdr.Set("Content-Length", strconv.Itoa(len(body)/2+i))
		}
		if i > 0 {
			hdr.Set(HeaderPushed, "1")
			hdr.Set(HeaderSpecP, strconv.Itoa(100*i))
		}
		pw, err := mw.CreatePart(hdr)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(body)
	}
	mw.Close()
	return buf.Bytes()
}

// FuzzWalkBundle holds the in-place walker to mime/multipart.Reader. On
// arbitrary bytes: it never panics, every slice it returns lies inside the
// input with bodies capacity-clipped, and whatever it accepts
// mime/multipart accepts as the same parts in the same order — so what
// mime/multipart rejects, it rejects. (The converse is deliberately not
// claimed: the walker refuses preambles, bare-LF line ends, transport
// padding and folded headers, which no writer here emits.) Then the bytes
// are cut into part bodies and framed by mime/multipart.Writer with no,
// true and lying part lengths: those the walker must accept, identically.
func FuzzWalkBundle(f *testing.F) {
	const b = "BOUNDARY"
	bodies := [][]byte{[]byte("requested"), {}, []byte("pushed\r\n--BOUNDARYx\r\nstill body")}
	for mode := noLength; mode <= lyingLength; mode++ {
		f.Add(writerBundle(f, b, mode, bodies...), b)
	}
	own := appendPartHeader(nil, true, "/a", 2, bundleDoc{})
	own = append(own, "hi"...)
	own = appendPartHeader(own, false, "/b", 0, bundleDoc{class: attrib.ClassPush, pMilli: 420})
	own = appendPartHeader(own, false, "/c", 0, bundleDoc{class: attrib.ClassPrefetch, pMilli: 250, inline: true})
	own = appendBundleClose(own, false)
	f.Add(own, bundleBoundary)
	for _, s := range []string{
		"--B--", "--B--\r\n", "--B\r\n\r\n--B--", "--B\r\n\r\n\r\n--B--\r\nepilogue",
		"--B\r\nContent-Location: /a\r\n\r\nbody\r\n--B--\r\n",
		"--B\r\nContent-Location: /a\r\n\r\nbody",                            // truncated body
		"--B\r\nContent-Location: /a\r\n",                                    // truncated headers
		"--B\r\n",                                                            // truncated after the delimiter
		"preamble\r\n--B\r\n\r\nx\r\n--B--",                                  // preamble
		"--B\nK: v\n\nx\n--B--\n",                                            // bare LF
		"--B \t\r\n\r\nx\r\n--B-- \r\n",                                      // transport padding
		"--B\r\nK: a\r\n b\r\n\r\nx\r\n--B--",                                // folded header
		"--B\r\nno colon\r\n\r\nx\r\n--B--",                                  // malformed header
		"--B\r\nK : v\r\n\r\nx\r\n--B--",                                     // space before the colon
		"--B\r\nContent-Location:\r\nContent-Location: /z\r\n\r\nx\r\n--B--", // first wins, even empty
		"--B\r\ncontent-LOCATION:  /a \t\r\nSpec-Pushed: 1\r\nSPEC-P: 7\r\n\r\nx\r\n--B\r\n\r\ny\r\n--B--",
		"--B\r\nContent-Length: 1\r\n\r\nx\r\n--B--",
		"--B\r\nContent-Length: 3\r\n\r\nx\r\n--B--", // lying: too long
		"--B\r\nContent-Length: 99999999999999999999\r\n\r\nx\r\n--B--",
		"--B\r\nContent-Length: -1\r\n\r\nx\r\n--B--",
		"--B\r\n\r\nx\r\n--B-x\r\n--B--", // delimiter followed by junk
		"--B\r\n\r\nx\r\n--B\rX\r\n--B--",
		"--B\r\n\r\nx\r\n--Bx\r\n--B--", // same bytes mid-line: body
		"--B\r\n\r\nx\r\n--B",           // delimiter, then nothing
		"--Bx\r\n\r\n--B--", "--", "", "\r\n--B--",
	} {
		f.Add([]byte(s), "B")
	}
	f.Fuzz(func(t *testing.T, data []byte, boundary string) {
		// RFC 2046 boundaries only, as mime/multipart.Writer defines them.
		if multipart.NewWriter(io.Discard).SetBoundary(boundary) != nil {
			return
		}
		delim := []byte("\r\n--" + boundary)

		got, err := walkParts(data, boundary)
		licensed := false // a believed part length kept a delimiter inside a body
		for i, p := range got {
			if !inside(p.loc, data) || !inside(p.pushed, data) || !inside(p.specP, data) || !inside(p.body, data) {
				t.Fatalf("part %d reaches outside the input", i)
			}
			if p.body == nil || cap(p.body) != len(p.body) {
				t.Fatalf("part %d body: len %d cap %d, want a clipped non-nil slice", i, len(p.body), cap(p.body))
			}
			// (or at its very start, where the blank line's CRLF completes it)
			licensed = licensed || bytes.Contains(append([]byte("\r\n"), p.body...), delim)
		}
		if err == nil && !licensed {
			want, rerr := multipartParts(data, boundary)
			if rerr != nil {
				t.Fatalf("walker accepted %d parts of what mime/multipart rejects: %v", len(got), rerr)
			}
			sameParts(t, got, want)
		}

		var bodies [][]byte
		for _, chunk := range bytes.SplitN(data, []byte{0}, 6) {
			if bytes.Contains(append([]byte("\r\n"), chunk...), delim) {
				return // not a body mime/multipart.Writer can carry under this boundary
			}
			bodies = append(bodies, chunk)
		}
		for mode := noLength; mode <= lyingLength; mode++ {
			framed := writerBundle(t, boundary, mode, bodies...)
			got, err := walkParts(framed, boundary)
			if err != nil {
				t.Fatalf("mode %d: walker rejected mime/multipart.Writer output: %v\n%q", mode, err, framed)
			}
			want, err := multipartParts(framed, boundary)
			if err != nil {
				t.Fatal(err)
			}
			sameParts(t, got, want)
			for i, p := range got {
				if !bytes.Equal(p.body, bodies[i]) {
					t.Fatalf("mode %d part %d: body %q, framed %q", mode, i, p.body, bodies[i])
				}
			}
		}
	})
}

// TestWalkerLyingLength: a part length is taken only when a delimiter sits
// where it points; anything else costs a scan and yields the right body.
func TestWalkerLyingLength(t *testing.T) {
	for _, tc := range []struct{ name, declared string }{
		{"short", "2"}, {"long", "9"}, {"past the end", "4096"}, {"not a number", "4x"},
		{"negative", "-4"}, {"overflow", "18446744073709551617"}, {"honest", "4"},
	} {
		data := []byte("--B\r\nContent-Location: /a\r\nContent-Length: " + tc.declared +
			"\r\n\r\nbody\r\n--B\r\nContent-Location: /b\r\n\r\nnext\r\n--B--\r\n")
		parts, err := walkParts(data, "B")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(parts) != 2 || string(parts[0].body) != "body" || string(parts[1].body) != "next" {
			t.Errorf("%s: parts %q", tc.name, parts)
		}
	}
	// The licence: a believed length keeps delimiter-looking bytes in the body.
	body := "a\r\n--B\r\nb"
	data := []byte("--B\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body + "\r\n--B--")
	parts, err := walkParts(data, "B")
	if err != nil || len(parts) != 1 || string(parts[0].body) != body {
		t.Errorf("declared body with an embedded delimiter: parts %q, err %v", parts, err)
	}
}

// bundleResponse wraps raw bundle bytes as the response ingestBundle reads.
func bundleResponse(raw []byte, declared int64) *http.Response {
	return &http.Response{Body: io.NopCloser(bytes.NewReader(raw)), ContentLength: declared, Header: http.Header{}}
}

// TestIngestBundleChecks pins every rejection ingestBundle had when it
// read through mime/multipart: none is permanent, so the retrier retries.
func TestIngestBundleChecks(t *testing.T) {
	good := writerBundle(t, "B", trueLength, []byte("requested"), []byte("pushed"))
	for _, tc := range []struct {
		name, boundary, want string
		raw                  []byte
		declared             int64
		wantErr              string
	}{
		{"ok", "B", "/doc/0", good, int64(len(good)), ""},
		{"ok undeclared", "B", "/doc/0", good, -1, ""},
		{"empty boundary", "", "/doc/0", good, -1, "without boundary"},
		{"wrong boundary", "C", "/doc/0", good, -1, "malformed"},
		{"malformed part", "B", "/doc/0", []byte("--B\r\nno colon\r\n\r\nx\r\n--B--"), -1, "malformed"},
		{"truncated, undeclared", "B", "/doc/0", good[:len(good)-12], -1, "unexpected EOF"},
		{"truncated, declared", "B", "/doc/0", good[:len(good)-12], int64(len(good)), "unexpected EOF"},
		{"requested document missing", "B", "/doc/7", good, -1, "missing requested document"},
		{"no parts", "B", "/doc/0", []byte("--B--\r\n"), -1, "missing requested document"},
	} {
		c := NewClient("http://unused", ClientConfig{})
		body, err := c.ingestBundle(tc.want, bundleResponse(tc.raw, tc.declared), tc.boundary)
		if tc.wantErr == "" {
			if err != nil || string(body) != "requested" {
				t.Errorf("%s: body %q, err %v", tc.name, body, err)
			}
			if !c.Cached("/doc/1") || c.Stats().Pushed != 1 {
				t.Errorf("%s: pushed part not cached (stats %+v)", tc.name, c.Stats())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
		if resilience.IsPermanent(err) {
			t.Errorf("%s: %v is permanent; a bad bundle must stay retryable", tc.name, err)
		}
	}
}

// TestBundleBoundaryOf: the server's own spelling and a type with no
// parameters are read in place and every other through mime, and each
// answer is mime's.
func TestBundleBoundaryOf(t *testing.T) {
	for _, tc := range []struct {
		contentType, boundary string
		bundle                bool
	}{
		{bundleContentType, bundleBoundary, true},
		{"multipart/mixed; boundary=B", "B", true},
		{`multipart/mixed; boundary="B"`, "B", true},
		{`multipart/mixed; boundary="a b"`, "a b", true},
		{"Multipart/Mixed;boundary=B", "B", true},
		{"multipart/mixed; charset=x; boundary=B", "B", true},
		{"multipart/mixed;  boundary=B", "B", true},
		{"multipart/mixed; boundary=B; charset=x", "B", true},
		{"multipart/mixed; boundary=", "", true},
		{"multipart/mixed", "", true},
		{"multipart/related; boundary=B", "B", false},
		{"application/octet-stream; boundary=B", "B", false},
		{"application/octet-stream", "", false},
		{"MULTIPART/MIXED", "", true},
		{" multipart/mixed\t", "", true},
		{"multİpart/mixed", "", true}, // İ lowers to i, as mime reads it
		{"multipart/mixed/x", "", false},
		{"multipart mixed", "", false},
		{"", "", false},
	} {
		boundary, bundle := bundleBoundaryOf(tc.contentType)
		if boundary != tc.boundary || bundle != tc.bundle {
			t.Errorf("bundleBoundaryOf(%q) = %q, %v; want %q, %v", tc.contentType, boundary, bundle, tc.boundary, tc.bundle)
		}
		checkBoundaryAgainstMime(t, tc.contentType)
	}
	if n := testing.AllocsPerRun(100, func() { bundleBoundaryOf("application/octet-stream") }); n != 0 {
		t.Errorf("a plain Content-Type costs %v allocations, want 0", n)
	}
}

// checkBoundaryAgainstMime holds bundleBoundaryOf to mime's reading of
// contentType.
func checkBoundaryAgainstMime(t *testing.T, contentType string) {
	t.Helper()
	boundary, bundle := bundleBoundaryOf(contentType)
	mt, params, _ := mime.ParseMediaType(contentType)
	if boundary != params["boundary"] || bundle != (mt == "multipart/mixed") {
		t.Errorf("bundleBoundaryOf(%q) = %q, %v; mime reads %q of %q", contentType, boundary, bundle, params["boundary"], mt)
	}
}

// FuzzBundleBoundaryOf: on any Content-Type, bundleBoundaryOf answers what
// mime does.
func FuzzBundleBoundaryOf(f *testing.F) {
	for _, s := range []string{bundleContentType, "multipart/mixed", " Multipart/Mixed ",
		"multipart/mixed; boundary=\"a b\"", "application/octet-stream", "text/html; charset=x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, contentType string) {
		checkBoundaryAgainstMime(t, contentType)
	})
}

// TestClientReadsForeignBundleSpelling: a bundle whose Content-Type is not
// spelled the way this package's server spells it — a demand answer's or a
// prefetch's — is a bundle all the same.
func TestClientReadsForeignBundleSpelling(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first, second := "/page", "/pushed"
		if r.Header.Get(HeaderPrefetch) != "" {
			first, second = "/a", "/b"
		} else {
			w.Header().Add("Link", `</a>; rel="prefetch"; spec-p=0.9`)
			w.Header().Add("Link", `</b>; rel="prefetch"; spec-p=0.8`)
		}
		raw := appendPartHeader(nil, true, first, 4, bundleDoc{})
		raw = append(raw, "body"...)
		raw = appendPartHeader(raw, false, second, 4, bundleDoc{class: attrib.ClassPush, pMilli: 900})
		raw = appendBundleClose(append(raw, "body"...), false)
		w.Header().Set("Content-Type", `Multipart/Mixed; charset=utf-8; boundary="`+bundleBoundary+`"`)
		_, _ = w.Write(raw)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, ClientConfig{ID: "foreign", AcceptBundles: true, PrefetchThreshold: 0.3})
	if body, _, err := c.Get("/page"); err != nil || string(body) != "body" {
		t.Fatalf("body %q, err %v", body, err)
	}
	if st := c.Stats(); st.Pushed != 1 || st.Prefetched != 2 || st.PrefetchRoundTrips != 1 {
		t.Errorf("stats %+v, want one push and two prefetches in one round trip", st)
	}
}

// writeLog is a ResponseWriter that keeps every Write apart.
type writeLog struct {
	h      http.Header
	writes [][]byte
}

func (l *writeLog) Header() http.Header { return l.h }
func (l *writeLog) WriteHeader(int)     {}
func (l *writeLog) Write(p []byte) (int, error) {
	l.writes = append(l.writes, bytes.Clone(p))
	return len(p), nil
}

// TestServeBundleEitherSideOfGatherMax: up to gatherMax of bodies a bundle
// leaves in one Write, beyond it piece by piece from where the store keeps
// the bodies; either way the bytes, the declared length and the accounting
// are those of the same framing.
func TestServeBundleEitherSideOfGatherMax(t *testing.T) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	big := &site.Docs[0]
	for i := range site.Docs {
		if site.Docs[i].Size > big.Size {
			big = &site.Docs[i]
		}
	}
	if big.Size <= gatherMax {
		t.Fatalf("largest document is %d bytes, need one above %d", big.Size, gatherMax)
	}
	var small []bundleDoc
	for i := range site.Docs {
		if d := &site.Docs[i]; d != big && len(small) < 4 {
			small = append(small, bundleDoc{doc: d.ID, class: attrib.ClassPush, pMilli: 900})
		}
	}
	small[0].class, small[2].class, small[2].inline = "", attrib.ClassPrefetch, true
	for _, tc := range []struct {
		name   string
		docs   []bundleDoc
		writes int
	}{
		{"gathered", small, 1},
		{"piece by piece", append(small[:4:4], bundleDoc{doc: big.ID, class: attrib.ClassPush, pMilli: 800}), 2*5 + 1},
	} {
		led := attrib.NewLedger(64, obs.NewRegistry())
		cfg := DefaultServerConfig()
		cfg.Metrics = obs.NewRegistry()
		cfg.Attrib = led
		store := NewSiteStore(site)
		srv, err := NewServer(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		var bodies int64
		for i, d := range tc.docs {
			body, _ := store.Content(d.doc)
			want = appendPartHeader(want, i == 0, site.Doc(d.doc).Path, len(body), d)
			want = append(want, body...)
			bodies += int64(len(body))
		}
		want = appendBundleClose(want, false)

		w := &writeLog{h: http.Header{}}
		written := srv.serveBundle(w, tc.docs, "")
		if got := bytes.Join(w.writes, nil); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes written, differing from the %d framed", tc.name, len(got), len(want))
		}
		if len(w.writes) != tc.writes {
			t.Errorf("%s: %d writes, want %d", tc.name, len(w.writes), tc.writes)
		}
		if got := w.h.Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length %s, want %d", tc.name, got, len(want))
		}
		if st := srv.Stats(); written != bodies || st.BytesSent != bodies || st.DocsPushed != int64(len(tc.docs)-2) || st.BundlesBuilt != 1 {
			t.Errorf("%s: %d body bytes reported written of %d, server counted %+v", tc.name, written, bodies, st)
		}
		if got := led.Report(0); got.Totals.Deliveries != int64(len(tc.docs)-1) || got.Classes[attrib.ClassPrefetch].Deliveries != 1 {
			t.Errorf("%s: ledger %+v", tc.name, got)
		}
	}
}

// piecesBody is an in-memory body that writes itself out in pieces of at
// most piece bytes; with fail set it stops halfway with that error. It is
// an io.WriterTo, so readBody must never call its Read.
type piecesBody struct {
	t     *testing.T
	data  []byte
	piece int
	fail  error
}

func (b *piecesBody) Read([]byte) (int, error) {
	b.t.Error("readBody read a body that can write itself out")
	return 0, io.EOF
}

func (b *piecesBody) WriteTo(w io.Writer) (int64, error) {
	data := b.data
	if b.fail != nil {
		data = data[:len(data)/2]
	}
	var n int64
	for len(data) > 0 {
		k, err := w.Write(data[:min(b.piece, len(data))])
		n += int64(k)
		if err != nil {
			return n, err
		}
		data = data[k:]
	}
	return n, b.fail
}

// TestReadBody: the buffer is sized from the declared length when there is
// a plausible one, and the bytes returned never depend on it. Streams keep
// the exact-size read; bodies already in memory write themselves into a
// buffer of their own, capacity-clipped, whatever shape the writes take.
func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 300) // 4800 B: several ReadAll growth steps
	errHalfway := errors.New("body failed halfway")
	for _, tc := range []struct {
		name     string
		declared int64
		want     []byte
		wantErr  error
		exact    bool // a stream's buffer must be exactly the declared size
	}{
		{"declared = actual", int64(len(data)), data, nil, true},
		{"short stream", int64(len(data)) + 10, data, io.ErrUnexpectedEOF, false},
		{"long stream", 100, data, nil, false},
		{"absent", -1, data, nil, false},
		{"above the cap", maxDeclaredBody + 1, data, nil, false},
		{"hostile", 1 << 62, data, nil, false},
		{"zero, empty", 0, nil, nil, true},
	} {
		src := data
		if tc.want == nil {
			src = nil
		}
		for _, r := range []io.Reader{struct{ io.Reader }{bytes.NewReader(src)},
			iotest.OneByteReader(bytes.NewReader(src)), iotest.DataErrReader(bytes.NewReader(src))} {
			got, err := readBody(r, tc.declared)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Errorf("%s: err %v, want %v", tc.name, err, tc.wantErr)
			}
			if !bytes.Equal(got, tc.want) {
				t.Errorf("%s: got %d bytes, want %d", tc.name, len(got), len(tc.want))
			}
			if tc.exact && int64(cap(got)) != tc.declared {
				t.Errorf("%s: cap %d, want exactly the declared %d", tc.name, cap(got), tc.declared)
			}
			if cap(got) > 4*len(data)+512 {
				t.Errorf("%s: a %d-byte stream was given a %d-byte buffer", tc.name, len(data), cap(got))
			}
		}
		for _, m := range []struct {
			name  string
			body  func([]byte) io.Reader
			fails bool
		}{
			{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }, false},
			{"NopCloser", func(b []byte) io.Reader { return io.NopCloser(bytes.NewReader(b)) }, false},
			{"pieces", func(b []byte) io.Reader { return &piecesBody{t: t, data: b, piece: 1000} }, false},
			{"fails halfway", func(b []byte) io.Reader {
				return &piecesBody{t: t, data: b, piece: 1000, fail: errHalfway}
			}, true},
		} {
			want, wantErr := tc.want, tc.wantErr
			if m.fails {
				want, wantErr = want[:len(want)/2], errHalfway
			}
			own := bytes.Clone(src)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := readBody(m.body(own), tc.declared)
			runtime.ReadMemStats(&after)
			if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
				t.Errorf("%s, %s: %d bytes allocated for a %d-byte body", tc.name, m.name, spent, len(src))
			}
			if !errors.Is(err, wantErr) || (wantErr == nil && err != nil) {
				t.Errorf("%s, %s: err %v, want %v", tc.name, m.name, err, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s: got %d bytes, want %d", tc.name, m.name, len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Errorf("%s, %s: cap %d for %d bytes, want it clipped", tc.name, m.name, cap(got), len(got))
			}
			for i := range own {
				own[i] = 'X'
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s: the body changed with its source: it aliases what was written", tc.name, m.name)
			}
		}
	}
	// Pieces land in the one buffer the declared length sized, never in
	// growth steps: two allocations, that buffer and its writer.
	pieces := &piecesBody{t: t, data: data, piece: 100}
	if a := testing.AllocsPerRun(10, func() { _, _ = readBody(pieces, int64(len(data))) }); a > 2 {
		t.Errorf("%v allocations for a body written in %d pieces, want 2", a, len(data)/100)
	}
	if _, err := readBody(iotest.ErrReader(io.ErrClosedPipe), 4); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("transport error lost: %v", err)
	}
	if _, err := readBody(iotest.TimeoutReader(bytes.NewReader(data)), int64(len(data))); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("error after a full read lost: %v", err)
	}
}

// rawBundle fetches a trained page as a bundle, undecoded.
func rawBundle(t *testing.T, w *testWorld, page *webgraph.Document) (*http.Response, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, w.ts.URL+page.Path, nil)
	req.Header.Set(HeaderAccept, acceptBundle)
	req.Header.Set(HeaderClient, "raw")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServeBundleOnTheWire: what serveBundle emits declares its length (so
// net/http does not chunk it), is multipart/mixed to mime/multipart.Reader,
// and every part's Content-Length is its body's.
func TestServeBundleOnTheWire(t *testing.T) {
	w := newWorld(t, ModePush)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 3)
	resp, raw := rawBundle(t, w, page)

	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
		t.Errorf("Content-Length %d, Transfer-Encoding %v, body %d bytes: the bundle length is not declared",
			resp.ContentLength, resp.TransferEncoding, len(raw))
	}
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/mixed" {
		t.Fatalf("Content-Type %q: %v", resp.Header.Get("Content-Type"), err)
	}
	mr := multipart.NewReader(bytes.NewReader(raw), params["boundary"])
	n := 0
	for ; ; n++ {
		p, err := mr.NextRawPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		loc := p.Header.Get("Content-Location")
		id, ok := w.store.Lookup(loc)
		if !ok {
			t.Fatalf("part %d: unknown Content-Location %q", n, loc)
		}
		if want, _ := w.store.Content(id); !bytes.Equal(body, want) {
			t.Errorf("part %d (%s): body differs from the store's", n, loc)
		}
		if p.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("part %d: Content-Length %q, body %d", n, p.Header.Get("Content-Length"), len(body))
		}
		if pushed := p.Header.Get(HeaderPushed) != ""; pushed != (n > 0) || (n == 0 && loc != page.Path) {
			t.Errorf("part %d (%s): pushed=%v", n, loc, pushed)
		}
	}
	if n < 2 {
		t.Fatalf("bundle carried %d parts, want the page and at least one push", n)
	}
	want, err := multipartParts(raw, params["boundary"])
	if err != nil {
		t.Fatal(err)
	}
	got, err := walkParts(raw, params["boundary"])
	if err != nil {
		t.Fatal(err)
	}
	sameParts(t, got, want)
}

// TestBundleThroughProxyKeepsItsLength: the proxy forwards the origin's
// Content-Length, so a proxied bundle reaches the client on the sized path.
func TestBundleThroughProxyKeepsItsLength(t *testing.T) {
	w := newWorld(t, ModePush)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 3)
	pts := httptest.NewServer(NewProxy(w.ts.URL, nil))
	defer pts.Close()
	direct, raw := rawBundle(t, w, page)
	w.ts.URL = pts.URL
	proxied, rawProxied := rawBundle(t, w, page)
	if proxied.ContentLength != direct.ContentLength || len(proxied.TransferEncoding) != 0 || len(rawProxied) != len(raw) {
		t.Errorf("proxied bundle: Content-Length %d (direct %d), Transfer-Encoding %v",
			proxied.ContentLength, direct.ContentLength, proxied.TransferEncoding)
	}
}

// TestBundleBodiesDoNotOverlap: cached part bodies share one buffer, so the
// slice Get returns is clipped — an append reallocates instead of writing
// over the neighbouring part.
func TestBundleBodiesDoNotOverlap(t *testing.T) {
	w := newWorld(t, ModePush)
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 3)
	c := NewClient(w.ts.URL, ClientConfig{ID: "clip", AcceptBundles: true})
	body, _, err := c.Get(page.Path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Pushed == 0 {
		t.Fatal("no bundle: nothing pushed")
	}
	if cap(body) != len(body) {
		t.Fatalf("returned body has cap %d beyond len %d", cap(body), len(body))
	}
	_ = append(body, bytes.Repeat([]byte{'!'}, 256)...)
	for _, e := range page.Embedded {
		d := w.site.Doc(e)
		got, fromCache, err := c.Get(d.Path)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := w.store.Content(e)
		if fromCache && !bytes.Equal(got, want) {
			t.Errorf("%s: cached pushed body was overwritten by an append to its neighbour", d.Path)
		}
	}
}

// TestAppendLinkHintMatchesSprintf: the hint bytes are those fmt produced.
func TestAppendLinkHintMatchesSprintf(t *testing.T) {
	for _, path := range []string{"/a", "/pages/p0036.html", "/" + strings.Repeat("long/", 60)} {
		for _, p := range []float64{0, 1, 0.42, 0.4205, 0.0005, 0.9995, 0.99949999, 1e-9, 0.25, 1.0 / 3, 123.4567} {
			want := fmt.Sprintf("<%s>; rel=\"prefetch\"; spec-p=%.3f", path, p)
			var buf [128]byte
			if got := string(appendLinkHint(buf[:0], path, p)); got != want {
				t.Errorf("appendLinkHint(%q, %v) = %q, want %q", path, p, got, want)
			}
			if h, ok := parseLinkHint(want); !ok || h.path != path {
				t.Errorf("parseLinkHint(%q) = %+v, %v", want, h, ok)
			}
		}
	}

	// The probabilities the estimator can produce and the values around
	// every rounding boundary: the integer path and the strconv fallback
	// together must be %.3f everywhere.
	check := func(p float64) {
		t.Helper()
		var buf [64]byte
		want := fmt.Sprintf("</a>; rel=\"prefetch\"; spec-p=%.3f", p)
		if got := string(appendLinkHint(buf[:0], "/a", p)); got != want {
			t.Errorf("appendLinkHint(%v [%#x]) = %q, want %q", p, math.Float64bits(p), got, want)
		}
		// What the server holds a hint's probability to be is what a client
		// reads off it.
		if h, _ := parseLinkHint(want); hintMilli(p) != attrib.PMilli(h.p) {
			t.Errorf("hintMilli(%v [%#x]) = %d, a client reads %d off %q", p, math.Float64bits(p), hintMilli(p), attrib.PMilli(h.p), want)
		}
	}
	for k := 0; k <= 65536; k++ {
		check(float64(k) / 65536)
	}
	// count/occ and count/(occ+Smoothing): exact ties such as 1/16 = 0.0625
	// and 3/16 = 0.1875 sit here and round half-even.
	for a := 0; a < 400; a++ {
		for b := 1; b < 400; b++ {
			check(float64(a) / float64(b))
			check(float64(a) / float64(b+2))
		}
	}
	// Both neighbours of every x.xxx5 below 2, and of some larger ones.
	for m := 0; m < 2000; m++ {
		tie := (float64(m) + 0.5) / 1000
		check(tie)
		check(math.Nextafter(tie, math.Inf(-1)))
		check(math.Nextafter(tie, math.Inf(1)))
	}
	for _, tie := range []float64{12.3455, 999.9985, 999.9995, 1000.0005, 0.0625, 0.1875, 0.3125} {
		check(tie)
		check(math.Nextafter(tie, math.Inf(-1)))
		check(math.Nextafter(tie, math.Inf(1)))
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		-0.0004, -0.0005, -0.42, -1, 999.9994, 999.9996, 1000, 1000.4, 1e6, 1e15, 1e22, 1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 4.9999999e-4, 5.0000001e-4} {
		check(p)
	}
}

func FuzzAppendFixed3(f *testing.F) {
	for _, p := range []float64{0, 0.42, 0.0625, 0.1875, 0.9995, 999.9995, -0.0, -1, 1e22,
		math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p float64) {
		want := fmt.Sprintf("%.3f", p)
		if got := string(appendFixed3(nil, p)); got != want {
			t.Fatalf("appendFixed3(%v [%#x]) = %q, want %q", p, math.Float64bits(p), got, want)
		}
		read, _ := strconv.ParseFloat(want, 64)
		if got, want := hintMilli(p), attrib.PMilli(clampProb(read)); got != want {
			t.Fatalf("hintMilli(%v [%#x]) = %d, a client reads %d", p, math.Float64bits(p), got, want)
		}
	})
}

// splitLinkHint is parseLinkHint as it was written over strings.Split.
func splitLinkHint(l string) (clientHint, bool) {
	parts := strings.Split(l, ";")
	target := strings.TrimSpace(parts[0])
	if !strings.HasPrefix(target, "<") || !strings.HasSuffix(target, ">") {
		return clientHint{}, false
	}
	h := clientHint{path: target[1 : len(target)-1]}
	isPrefetch := false
	for _, p := range parts[1:] {
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

func FuzzParseLinkHint(f *testing.F) {
	for _, s := range []string{"", "garbage", "<", "<>", "<>;", `</a/b>; rel="prefetch"; spec-p=0.420`,
		"</a>;rel=prefetch;spec-p=2", `</a>; rel="stylesheet"`, " </a> ;; rel=prefetch ;spec-p=NaN;",
		"</a>; spec-p=0.1; spec-p=0.9; rel=prefetch", "</a;b>; rel=prefetch", "</a>; spec-p=-1e400"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, l string) {
		got, ok := parseLinkHint(l)
		want, wantOK := splitLinkHint(l)
		if got != want || ok != wantOK {
			t.Fatalf("parseLinkHint(%q) = %+v, %v; over strings.Split it was %+v, %v", l, got, ok, want, wantOK)
		}
	})
}

// TestClientRequestMatchesNewRequest: the request built from the base
// parsed once is the request http.NewRequestWithContext builds from
// base+path — same URL, same Host, same bytes on the wire — for every path
// the department and media sites serve, and for the paths and bases that
// have to take the parsing route.
func TestClientRequestMatchesNewRequest(t *testing.T) {
	paths := []string{"", "/", "relative", "/~user/x_y-z.html", "//x/y", "/../x", "/./", "/a/",
		"/a?b=c", "/a?", "/a#frag", "/a%2Fb", "/a%zz", "/a b", "/caf\u00e9", "/a\x7f", "/a:b", "/a;b", "/a+b", "/a@b"}
	for _, prof := range []webgraph.Profile{webgraph.DepartmentSite(), webgraph.MediaSite()} {
		site, err := webgraph.Generate(prof, stats.NewRNG(1995))
		if err != nil {
			t.Fatal(err)
		}
		for i := range site.Docs {
			paths = append(paths, site.Docs[i].Path)
		}
	}
	parsedOnce := map[string]bool{
		"http://127.0.0.1:8111": true, "http://example.com": true, "http://example.com/": true,
		"http://example.com/pre/fix": true, "https://[::1]:8443/a": true,
		"HTTP://example.com": false, "http://user:pw@example.com": false, "http://example.com:": false,
		"http://example.com/a%2Fb": false, "http://example.com/a b": false,
		"http://example.com/?q=1": false, "http://example.com/#f": false, "example.com": false, "": false,
	}
	ctx := context.Background()
	for base, want := range parsedOnce {
		c := NewClient(base, ClientConfig{})
		if got := c.baseURL != nil; got != want {
			t.Errorf("base %q parsed once = %v, want %v", base, got, want)
		}
		for _, path := range paths {
			ref, refErr := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
			got, err := c.newRequest(ctx, path)
			if (err != nil) != (refErr != nil) {
				t.Errorf("%q + %q: err %v, reference %v", base, path, err, refErr)
			}
			if err != nil || refErr != nil {
				continue
			}
			if !reflect.DeepEqual(got.URL, ref.URL) || got.URL.String() != ref.URL.String() ||
				got.URL.RequestURI() != ref.URL.RequestURI() || got.Host != ref.Host {
				t.Errorf("%q + %q: URL %#v host %q, reference %#v host %q", base, path, got.URL, got.Host, ref.URL, ref.Host)
			}
			var wire, refWire bytes.Buffer
			if err, refErr := got.Write(&wire), ref.Write(&refWire); err != nil || refErr != nil ||
				!bytes.Equal(wire.Bytes(), refWire.Bytes()) {
				t.Errorf("%q + %q: on the wire %q (%v), reference %q (%v)", base, path, wire.Bytes(), err, refWire.Bytes(), refErr)
			}
		}
	}
}

// TestRenderBody pins every rendered byte to the reference formula — the
// header, cut off at the body's end, then body[i] = 'a' + (i+ID)%26 —
// across the header boundary, the alphabet's phase and a 1 MiB body, and
// checks the body is capacity-clipped.
func TestRenderBody(t *testing.T) {
	header := func(d *webgraph.Document) string {
		return fmt.Sprintf("specweb synthetic %s doc=%d path=%s\n", d.Kind, d.ID, d.Path)
	}
	reference := func(d *webgraph.Document) []byte {
		want := make([]byte, d.Size)
		for i := copy(want, header(d)); i < len(want); i++ {
			want[i] = byte('a' + (i+int(d.ID))%26)
		}
		return want
	}
	for _, id := range []webgraph.DocID{0, 1, 7, 25, 26, 27, 1000, 123457} {
		d := &webgraph.Document{ID: id, Kind: webgraph.Page, Path: "/p/" + strconv.Itoa(int(id))}
		h := len(header(d))
		sizes := []int{0, 1, h / 2, h - 1, h, h + 1, h + 25, h + 26, h + 27, 1 << 20}
		for size := 0; size <= 200; size++ {
			sizes = append(sizes, size)
		}
		for _, size := range sizes {
			d.Size = int64(size)
			got, want := renderBody(d), reference(d)
			if !bytes.Equal(got, want) {
				t.Fatalf("doc %d size %d (header %d):\n got %.300q\nwant %.300q", id, size, h, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("doc %d size %d: cap %d", id, size, cap(got))
			}
		}
	}
	d := &webgraph.Document{ID: 3, Kind: webgraph.Object, Path: "/big", Size: 100_003}
	if got := renderBody(d); !bytes.Equal(got, reference(d)) {
		t.Fatalf("object body of %d bytes differs from the reference", d.Size)
	}
}

// TestSiteStoreReleasesEvictedBodies: the body map mirrors the LRU model
// after every miss, whatever the miss evicted.
func TestSiteStoreReleasesEvictedBodies(t *testing.T) {
	site := &webgraph.Site{}
	for i := 0; i < 40; i++ {
		site.Docs = append(site.Docs, webgraph.Document{ID: webgraph.DocID(i), Kind: webgraph.Page,
			Path: "/d" + strconv.Itoa(i), Size: int64(100 + 40*(i%5))})
	}
	s := NewSiteStoreCached(site, 1000)
	for round := 0; round < 3; round++ {
		for i := range site.Docs {
			id := webgraph.DocID((i * 7) % len(site.Docs))
			if _, ok := s.Content(id); !ok {
				t.Fatalf("doc %d missing", id)
			}
			if len(s.bodies) != s.model.Len() {
				t.Fatalf("after doc %d: %d bodies held, model retains %d", id, len(s.bodies), s.model.Len())
			}
			for d := range s.bodies {
				if !s.model.Contains(d) {
					t.Fatalf("body of evicted doc %d still held", d)
				}
			}
		}
	}
}
