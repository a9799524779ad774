package httpspec

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"io"
	"mime"
	"strconv"
	"strings"

	"specweb/internal/attrib"
)

// The wire path: every length is declared by the sender and every receive
// buffer is sized from it. The server frames a bundle with a Content-Length
// on the response and on each part; the client reads the response into one
// buffer of exactly that size and walks the parts in place, so a document
// is copied once between the socket and the cache (DESIGN §10).

// maxDeclaredBody is the largest Content-Length readBody allocates up
// front. The length arrives from the network, so it may size a buffer only
// up to a bound the receiver chose; larger (or absent, or wrong) lengths
// take the growing read, which allocates in step with the bytes that
// actually arrive. A constant, not an option: it bounds the damage of a
// lie, and no honest response in this system comes near it.
const maxDeclaredBody = 64 << 20

// readBody reads r to EOF. With a plausible declared length it allocates
// exactly that many bytes and fills them in one pass; a stream that ends
// early is io.ErrUnexpectedEOF (retryable upstream), one that runs long is
// still returned whole.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared > maxDeclaredBody {
		return io.ReadAll(r)
	}
	buf := make([]byte, declared)
	if n, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:n], err
	}
	// Confirm EOF: it is what releases a keep-alive connection, and a
	// sender that understated its length must not lose the tail.
	var probe [1]byte
	switch _, err := io.ReadFull(r, probe[:]); err {
	case io.EOF:
		return buf, nil
	case nil:
		rest, err := io.ReadAll(r)
		return append(append(buf, probe[0]), rest...), err
	default:
		return buf, err
	}
}

// bundleBoundary delimits the parts of every bundle this process serves.
// Drawn once, not per response: what a boundary needs is that document
// authors cannot know it in advance, and parts carry their own lengths.
var bundleBoundary = func() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("httpspec: no entropy for the bundle boundary: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}()

// bundleTypePrefix is the Content-Type of a bundle up to its boundary, in
// the one spelling this package's server emits.
const bundleTypePrefix = "multipart/mixed; boundary="

var bundleContentType = bundleTypePrefix + bundleBoundary

// bundleBoundaryOf reads the boundary off a response's Content-Type; ok is
// false when that is not multipart/mixed. The server's own spelling with a
// bare token for a boundary — every bundle this system sends — is read in
// place; any other goes through mime, which builds a map per call.
func bundleBoundaryOf(contentType string) (boundary string, ok bool) {
	if b, found := strings.CutPrefix(contentType, bundleTypePrefix); found && isToken(b) {
		return b, true
	}
	mt, params, _ := mime.ParseMediaType(contentType)
	return params["boundary"], mt == "multipart/mixed"
}

func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isTokenByte(s[i]) {
			return false
		}
	}
	return s != ""
}

// appendDelimiter frames "--boundary", after the CRLF that belongs to it
// on every delimiter but a bundle's first.
func appendDelimiter(dst []byte, first bool) []byte {
	if !first {
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "--"...)
	return append(dst, bundleBoundary...)
}

// appendPartHeader frames one bundle part's delimiter and headers onto
// dst: the multipart/mixed the old mime/multipart writer produced, plus
// the part's Content-Length. A part the server chose to send — pushed, or a
// prefetch in place of a hint — carries the Spec-P that drove the choice,
// and a pushed one says so.
func appendPartHeader(dst []byte, first bool, path string, size int, d bundleDoc) []byte {
	dst = appendDelimiter(dst, first)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(size), 10)
	dst = append(dst, "\r\nContent-Location: "...)
	dst = append(dst, path...)
	dst = append(dst, "\r\nContent-Type: application/octet-stream\r\n"...)
	pushed := d.class == attrib.ClassPush
	if pushed || d.inline {
		dst = append(dst, HeaderSpecP+": "...)
		dst = strconv.AppendInt(dst, d.pMilli, 10)
		dst = append(dst, "\r\n"...)
	}
	if pushed {
		dst = append(dst, HeaderPushed+": 1\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// appendBundleClose frames the closing delimiter.
func appendBundleClose(dst []byte, first bool) []byte {
	return append(appendDelimiter(dst, first), "--\r\n"...)
}

// errBundleMalformed rejects a bundle that is not the strict RFC 2046
// subset the walker reads; a bundle that merely stops early is
// io.ErrUnexpectedEOF instead.
var errBundleMalformed = errors.New("malformed multipart bundle")

// bundlePart is one part of a bundle: the header values the client
// consumes and the body, all sub-slices of the buffer being walked.
type bundlePart struct {
	loc, pushed, specP []byte
	body               []byte
}

// The part header fields the walker extracts.
const (
	fieldLocation = iota
	fieldPushed
	fieldSpecP
	fieldLength
)

var partFields = [...][]byte{
	fieldLocation: []byte("Content-Location"),
	fieldPushed:   []byte(HeaderPushed),
	fieldSpecP:    []byte(HeaderSpecP),
	fieldLength:   []byte("Content-Length"),
}

// bundleWalker parses a multipart/mixed body in place. It reads a strict
// subset of what mime/multipart.Reader accepts — CRLF line ends, no
// preamble, no transport padding, no folded header lines — and agrees with
// it on every bundle in that subset (FuzzWalkBundle), with one licence: a
// part's Content-Length is believed once a delimiter is seen to sit at
// that offset, so the body is not searched. The length is a hint, never
// trusted blind — a wrong one costs a scan, not a mis-split.
type bundleWalker struct {
	raw   []byte
	delim []byte // "\r\n--" + boundary
	pos   int    // start of the next part's headers
	last  bool   // the closing delimiter has been seen
}

func newBundleWalker(raw []byte, boundary string) (bundleWalker, error) {
	w := bundleWalker{raw: raw, delim: []byte("\r\n--" + boundary)}
	// The first delimiter has no CRLF of its own.
	if !bytes.HasPrefix(raw, w.delim[2:]) || !w.open(len(w.delim)-2) {
		return w, errBundleMalformed
	}
	return w, nil
}

// open classifies what follows a delimiter's "--boundary" ending at k: a
// CRLF opens the next part, "--" then CRLF or the end closes the bundle.
func (w *bundleWalker) open(k int) bool {
	rest := w.raw[k:]
	switch {
	case bytes.HasPrefix(rest, crlf):
		w.pos = k + 2
	case bytes.HasPrefix(rest, dashDash) && (len(rest) == 2 || bytes.HasPrefix(rest[2:], crlf)):
		w.last = true
	default:
		return false
	}
	return true
}

var (
	crlf     = []byte("\r\n")
	dashDash = []byte("--")
)

// next returns the next part; ok is false after the closing delimiter.
func (w *bundleWalker) next() (p bundlePart, ok bool, err error) {
	if w.last {
		return p, false, nil
	}
	raw, h := w.raw, w.pos
	var vals [len(partFields)][]byte
	var seen [len(partFields)]bool
	for {
		e := bytes.Index(raw[h:], crlf)
		if e < 0 {
			return p, false, io.ErrUnexpectedEOF
		}
		line := raw[h : h+e]
		h += e + 2
		if e == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 || !validPartHeader(line[:colon], line[colon+1:]) {
			return p, false, errBundleMalformed
		}
		key, val := line[:colon], line[colon+1:]
		for f := range partFields {
			// The first occurrence wins, as textproto's Get has it.
			if !seen[f] && bytes.EqualFold(key, partFields[f]) {
				seen[f], vals[f] = true, bytes.Trim(val, " \t")
			}
		}
	}
	// h is the body's first byte. Take the declared length if a delimiter
	// sits where it says the body ends; otherwise find the first delimiter,
	// starting at the blank line's CRLF, which an empty body shares with it.
	end := -1
	if n, declared := parseLength(vals[fieldLength], len(raw)-h); declared && bytes.HasPrefix(raw[h+n:], w.delim) && w.open(h+n+len(w.delim)) {
		end = h + n
	}
	for from := h - 2; end < 0; {
		j := bytes.Index(raw[from:], w.delim)
		if j < 0 {
			return p, false, io.ErrUnexpectedEOF
		}
		j += from
		k := j + len(w.delim)
		// As in RFC 2046 the delimiter is a whole line: the same bytes
		// followed by anything else are body.
		if k < len(raw) && strings.IndexByte(" \t\r\n-", raw[k]) < 0 {
			from = k
			continue
		}
		if !w.open(k) {
			return p, false, errBundleMalformed
		}
		end = max(j, h)
	}
	return bundlePart{loc: vals[fieldLocation], pushed: vals[fieldPushed], specP: vals[fieldSpecP], body: raw[h:end:end]}, true, nil
}

// validPartHeader applies net/textproto's rules for a header line: the
// name is a non-empty token, the value has no control bytes but tab.
func validPartHeader(key, val []byte) bool {
	if len(key) == 0 {
		return false
	}
	for _, c := range key {
		if !isTokenByte(c) {
			return false
		}
	}
	for _, c := range val {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

func isTokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// parseLength parses a part's Content-Length: plain digits, at most limit.
func parseLength(s []byte, limit int) (int, bool) {
	n, err := strconv.ParseUint(string(s), 10, 63)
	return int(n), err == nil && n <= uint64(limit)
}

// Spec-Want: the documents a prefetch request asks for besides the one in
// its URL, as "path;p" items separated by single spaces, p the hint's
// probability in thousandths. The answer is a bundle of the requested
// document and as many of the named ones as the server chose to send, none
// marked pushed: the client knows what it asked for.

// maxWant is how many documents one prefetch request asks for, the URL's
// included; maxWantItems is how many list items a server will look at
// (what it sends is capped by ServerConfig.MaxPush). Constants, not options:
// a longer hint list is asked for in further requests, never truncated.
const (
	maxWant      = 16
	maxWantItems = 4 * maxWant
)

// wantable reports whether path can be named in a Spec-Want list: absolute,
// and no byte that would end the item or the header. One that cannot is
// asked for in a request of its own.
func wantable(path string) bool {
	if path == "" || path[0] != '/' {
		return false
	}
	for i := 0; i < len(path); i++ {
		if c := path[i]; c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// appendWant renders one more list item onto dst.
func appendWant(dst []byte, path string, pMilli int64) []byte {
	if len(dst) > 0 {
		dst = append(dst, ' ')
	}
	dst = append(dst, path...)
	dst = append(dst, ';')
	return strconv.AppendInt(dst, pMilli, 10)
}

// nextWant cuts the first item off a Spec-Want list. The probability is
// what follows the item's last semicolon, clamped like every probability
// that crosses the wire; garbage, or none, reads as 0.
func nextWant(list string) (path string, pMilli int64, rest string) {
	item, rest, _ := strings.Cut(list, " ")
	path = item
	if i := strings.LastIndexByte(item, ';'); i >= 0 {
		path = item[:i]
		pMilli, _ = parsePMilli(item[i+1:])
	}
	return path, pMilli, rest
}
