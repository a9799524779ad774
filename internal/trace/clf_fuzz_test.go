package trace

import (
	"bytes"
	"strings"
	"testing"

	"specweb/internal/webgraph"
)

// FuzzParseCLF pins the contract of the log reader behind specbench
// -trace, which reads any file it is given: ParseCLF never panics, every
// line is either accepted or reported, and every request it accepts
// survives WriteCLF and a second parse unchanged.
func FuzzParseCLF(f *testing.F) {
	for _, s := range []string{
		`piweba3y.prodigy.com - - [09/Jan/1995:00:00:12 -0500] "GET /images/logo.gif HTTP/1.0" 200 13402`,
		`h.local - - [09/Jan/1995:00:00:12 -0500] "GET /a HTTP/1.0" 304 -`,
		`a - - [09/Jan/1995:00:00:12 +0000] "POST /x?y=1 HTTP/1.1" 404 -7` + "\n\n" +
			`b - - [9/jan/1995:0:00:12 -0000] "GET /]b" +200 +5` + "\r\n",
		`c - - [09/Jan/1995:00:00:12.5 -0500] "GET /a HTTP/1.0" 200 1`,
		`d - - [09/Jan/1995:00:00:12 -0500] "GET /a HTTP/1.0" 0 1`,
		`garbage`,
		`x - - [not-a-time] "GET /c HTTP/1.0" 200 10`,
		`short.req - - [09/Jan/1995:00:00:16 -0500] "GET" 200 10`,
	} {
		f.Add(s)
	}
	resolve := func(path string) (webgraph.DocID, bool) {
		return webgraph.DocID(len(path)), strings.HasPrefix(path, "/")
	}
	f.Fuzz(func(t *testing.T, in string) {
		var bad int
		tr, err := ParseCLF(strings.NewReader(in), resolve, func(string, error) { bad++ })
		if err != nil {
			return // a line past the scanner's buffer: an error, not a panic
		}
		lines := 0
		for _, l := range strings.Split(strings.ReplaceAll(in, "\r\n", "\n"), "\n") {
			if strings.TrimSpace(l) != "" {
				lines++
			}
		}
		if tr.Len()+bad > lines {
			t.Fatalf("%d accepted + %d reported from %d lines", tr.Len(), bad, lines)
		}
		var buf bytes.Buffer
		if err := WriteCLF(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ParseCLF(&buf, resolve, func(line string, err error) {
			t.Fatalf("written line %q does not parse: %v", line, err)
		})
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("%d requests written, %d read back:\n%s", tr.Len(), back.Len(), buf.String())
		}
		for i, r := range tr.Requests {
			b := back.Requests[i]
			if !b.Time.Equal(r.Time) {
				t.Fatalf("request %d time %v read back as %v", i, r.Time, b.Time)
			}
			r.Time = b.Time
			if b != r {
				t.Fatalf("request %d %+v read back as %+v", i, r, b)
			}
		}
	})
}
