package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"specweb/internal/webgraph"
)

// CLFTimeLayout is the Common Log Format timestamp layout.
const CLFTimeLayout = "02/Jan/2006:15:04:05 -0700"

// WriteCLF writes the trace in NCSA Common Log Format, the format of the
// 1995 httpd logs the paper analyzed:
//
//	host - - [day/mon/year:hh:mm:ss zone] "GET /path HTTP/1.0" status bytes
//
// Remote clients are written as dotted hosts under a synthetic "remote."
// prefix-free convention: the Remote flag is recoverable on parse because
// local clients carry the ".local" suffix.
func WriteCLF(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for i := range t.Requests {
		if err := writeCLFLine(bw, &t.Requests[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeCLFLine formats one request; both the buffered and the streaming
// writer go through it, so their outputs are byte-identical by
// construction (and pinned by test).
func writeCLFLine(bw *bufio.Writer, r *Request) error {
	status := r.Status
	if status == 0 {
		status = 200
	}
	if _, err := fmt.Fprintf(bw, "%s - - [%s] \"GET %s HTTP/1.0\" %d %d\n",
		string(r.Client), r.Time.Format(CLFTimeLayout), r.Path, status, r.Size); err != nil {
		return fmt.Errorf("trace: writing CLF: %w", err)
	}
	return nil
}

// WriteCLFStream drains a request stream straight into the writer, one
// bufio-buffered row at a time — the whole trace never exists in memory.
// It returns the number of rows written. The output is byte-identical to
// materializing the stream and calling WriteCLF.
func WriteCLFStream(w io.Writer, s Stream) (int, error) {
	bw := bufio.NewWriter(w)
	n := 0
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		if err := writeCLFLine(bw, &req); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// DocResolver maps a URL path to a document ID, reporting whether the path
// names a live document. Parsing uses it to rebuild Doc fields; analysis
// tools usually pass Site.ByPath-backed resolvers.
type DocResolver func(path string) (webgraph.DocID, bool)

// ParseCLF reads a Common Log Format stream into a Trace. Lines that do not
// parse are reported through onErr (which may be nil to skip silently);
// parsing continues either way, as real 1995 logs were full of junk lines.
// The resolver may be nil, in which case Doc is set to webgraph.None.
func ParseCLF(r io.Reader, resolve DocResolver, onErr func(line string, err error)) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	t := &Trace{}
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		req, err := parseCLFLine(line, resolve)
		if err != nil {
			if onErr != nil {
				onErr(line, err)
			}
			continue
		}
		t.Requests = append(t.Requests, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading CLF: %w", err)
	}
	return t, nil
}

func parseCLFLine(line string, resolve DocResolver) (Request, error) {
	var r Request

	// host - - [
	hostEnd := strings.IndexByte(line, ' ')
	if hostEnd <= 0 {
		return r, fmt.Errorf("no host field")
	}
	host := line[:hostEnd]

	// The timestamp is the first bracketed field after the host.
	lb := strings.IndexByte(line[hostEnd:], '[')
	if lb < 0 {
		return r, fmt.Errorf("no timestamp")
	}
	lb += hostEnd
	rb := strings.IndexByte(line[lb:], ']')
	if rb < 0 {
		return r, fmt.Errorf("no timestamp")
	}
	rb += lb
	ts, err := time.Parse(CLFTimeLayout, line[lb+1:rb])
	if err != nil {
		return r, fmt.Errorf("bad timestamp: %w", err)
	}
	// time.Parse takes a fractional second the layout does not name; CLF
	// has whole seconds, and WriteCLF could not give the fraction back.
	if ts.Nanosecond() != 0 {
		return r, fmt.Errorf("bad timestamp %q: fractional seconds", line[lb+1:rb])
	}

	q1 := strings.IndexByte(line[rb:], '"')
	if q1 < 0 {
		return r, fmt.Errorf("no request field")
	}
	q1 += rb
	q2 := strings.IndexByte(line[q1+1:], '"')
	if q2 < 0 {
		return r, fmt.Errorf("unterminated request field")
	}
	q2 += q1 + 1
	reqFields := strings.Fields(line[q1+1 : q2])
	if len(reqFields) < 2 {
		return r, fmt.Errorf("malformed request %q", line[q1+1:q2])
	}
	path := reqFields[1]

	rest := strings.Fields(line[q2+1:])
	if len(rest) < 2 {
		return r, fmt.Errorf("missing status/bytes")
	}
	// A status is three digits; 0 is also WriteCLF's "unset", written as
	// 200, so accepting it would not round-trip.
	status, err := strconv.Atoi(rest[0])
	if err != nil || status < 100 || status > 999 {
		return r, fmt.Errorf("bad status %q", rest[0])
	}
	var size int64
	if rest[1] != "-" {
		size, err = strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return r, fmt.Errorf("bad bytes %q", rest[1])
		}
	}

	r = Request{
		Time:   ts,
		Client: ClientID(host),
		Size:   size,
		Remote: !strings.HasSuffix(host, ".local"),
		Status: status,
		Path:   path,
		Doc:    webgraph.None,
	}
	if resolve != nil {
		if id, ok := resolve(path); ok {
			r.Doc = id
		}
	}
	return r, nil
}
