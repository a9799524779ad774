package httpspec

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"specweb/internal/attrib"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/stats"
	"specweb/internal/webgraph"
)

// The speculative-protocol headers cross a trust boundary: Spec-P,
// Spec-Rung, and Spec-Attrib arrive from arbitrary clients and flow into
// the attribution ledger and metric labels. These fuzz targets pin the
// hardening contract: no parser may panic, and garbage must degrade to a
// safe zero value instead of poisoning downstream state.

func FuzzParsePMilli(f *testing.F) {
	for _, s := range []string{"", "0", "1000", "500", "-1", "1001",
		"9223372036854775807", "-9223372036854775808", "0x10", "1e3",
		"999999999999999999999999", "12.5", " 7", "7 ", "+3", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := parsePMilli(s)
		if v < 0 || v > 1000 {
			t.Fatalf("parsePMilli(%q) = %d outside [0, 1000]", s, v)
		}
		if !ok && v != 0 {
			t.Fatalf("parsePMilli(%q) rejected but returned %d", s, v)
		}
		v2, ok2 := parsePMilli(s)
		if v2 != v || ok2 != ok {
			t.Fatalf("parsePMilli(%q) not deterministic", s)
		}
	})
}

// splitAccept is parseAccept as one would write it over strings.Split: the
// reference the in-place parser is held to.
func splitAccept(header string) (bundle bool, prefetch int64, session string) {
	pieces := strings.Split(header, ";")
	if strings.Trim(pieces[0], " \t") != "bundle" {
		return false, 0, ""
	}
	for _, param := range pieces[1:] {
		name, value, found := strings.Cut(strings.Trim(param, " \t"), "=")
		if !found || value == "" {
			continue
		}
		switch name {
		case "prefetch":
			if len(value) > 20 {
				continue
			}
			if v, err := strconv.ParseInt(value, 10, 64); err == nil {
				prefetch = min(max(v, 0), 1000)
			}
		case "session":
			if len(value) <= 16 && strings.Trim(value, "0123456789abcdefghijklmnopqrstuvwxyz") == "" {
				session = value
			}
		}
	}
	return true, prefetch, session
}

var acceptCases = []struct {
	header   string
	bundle   bool
	prefetch int64
	session  string
}{
	{"", false, 0, ""},
	{"bundle", true, 0, ""},
	{"nobundle", false, 0, ""}, // strings.Contains used to send this client bundles
	{"bundles", false, 0, ""},
	{"Bundle", false, 0, ""},
	{"bundle, chunked", false, 0, ""},
	{"bundle; prefetch=250", true, 250, ""},
	{" bundle\t;prefetch=250 ", true, 250, ""},
	{"bundle;;; prefetch=7;", true, 7, ""},
	{"bundle; q=1; prefetch=300; later=x", true, 300, ""},
	{"bundle; prefetch=100; prefetch=x", true, 100, ""},
	{"bundle; prefetch=100; prefetch=200", true, 200, ""},
	{"bundle; prefetch=", true, 0, ""},
	{"bundle; prefetch=abc", true, 0, ""},
	{"bundle; prefetch=0.25", true, 0, ""},
	{"bundle; prefetch = 250", true, 0, ""},
	{"bundle; Prefetch=250", true, 0, ""},
	{"bundle; prefetch=99999", true, 1000, ""},
	{"bundle; prefetch=-5", true, 0, ""},
	{"bundle; prefetch=123456789012345678901", true, 0, ""}, // 21 bytes
	{"prefetch=250", false, 0, ""},
	{"prefetch=250; bundle", false, 0, ""},
	{"bundle; session=0123456789abcdef", true, 0, "0123456789abcdef"},
	{"bundle; prefetch=250; session=k3", true, 250, "k3"},
	{" bundle ;session=zz9\t; prefetch=7", true, 7, "zz9"},
	{"bundle; session=abc; session=def", true, 0, "def"},
	{"bundle; session=abc; session=DEF", true, 0, "abc"},
	{"bundle; session=", true, 0, ""},
	{"bundle; session=0123456789abcdefg", true, 0, ""}, // 17 bytes
	{"bundle; session=Abc", true, 0, ""},
	{"bundle; session=a-b", true, 0, ""},
	{"bundle; session=a b", true, 0, ""},
	{"bundle; session = ab", true, 0, ""},
	{"bundle; Session=ab", true, 0, ""},
	{"bundle; session=\u00e9", true, 0, ""},
	{"nobundle; session=ab", false, 0, ""},
	{"session=ab; bundle", false, 0, ""},
}

func TestParseAccept(t *testing.T) {
	for _, tc := range acceptCases {
		if bundle, prefetch, session := parseAccept(tc.header); bundle != tc.bundle || prefetch != tc.prefetch || session != tc.session {
			t.Errorf("parseAccept(%q) = %v, %d, %q; want %v, %d, %q", tc.header, bundle, prefetch, session, tc.bundle, tc.prefetch, tc.session)
		}
	}
}

func FuzzParseAccept(f *testing.F) {
	for _, tc := range acceptCases {
		f.Add(tc.header)
	}
	f.Add(strings.Repeat(";", 4096) + "prefetch=1")
	f.Add("bundle;prefetch=\x00")
	f.Add("bundle;session=\x00")
	f.Add("bundle; session=" + strings.Repeat("z", 4096))
	f.Fuzz(func(t *testing.T, header string) {
		bundle, prefetch, session := parseAccept(header)
		if prefetch < 0 || prefetch > 1000 || !bundle && (prefetch != 0 || session != "") || !validSession(session) && session != "" {
			t.Fatalf("parseAccept(%q) = %v, %d, %q", header, bundle, prefetch, session)
		}
		if wantBundle, wantPrefetch, wantSession := splitAccept(header); bundle != wantBundle || prefetch != wantPrefetch || session != wantSession {
			t.Fatalf("parseAccept(%q) = %v, %d, %q; over strings.Split it is %v, %d, %q", header, bundle, prefetch, session, wantBundle, wantPrefetch, wantSession)
		}
		if key := sessionKey(session); (key == 0) != (session == "") {
			t.Fatalf("session %q has key %d", session, key)
		}
	})
}

// TestPrefetchMilli: the threshold a client states selects exactly the
// hints it would have followed — p advertised in three decimals, read back
// as a float, compared with the threshold — whichever side of a thousandth
// the threshold sits on.
func TestPrefetchMilli(t *testing.T) {
	check := func(threshold float64) {
		t.Helper()
		m := prefetchMilli(threshold)
		for k := int64(0); k <= 1000; k++ {
			if follows := float64(k)/1000 >= threshold; follows != (m > 0 && k >= m) {
				t.Fatalf("threshold %v [%#x]: stated %d, but the client follows a hint at 0.%03d: %v",
					threshold, math.Float64bits(threshold), m, k, follows)
			}
		}
	}
	for k := 1; k <= 1000; k++ {
		at := float64(k) / 1000
		if got := prefetchMilli(at); got != int64(k) {
			t.Errorf("prefetchMilli(%v) = %d", at, got)
		}
		check(at)
		check(math.Nextafter(at, 0))
		check(math.Nextafter(at, 2))
		check(at - 0.0005)
	}
	for _, off := range []float64{0, -0.25, math.NaN(), 1.0000001, 2, math.Inf(1)} {
		if got := prefetchMilli(off); got != 0 {
			t.Errorf("prefetchMilli(%v) = %d, want none stated", off, got)
		}
	}
	check(math.SmallestNonzeroFloat64)
	check(1e-9)
}

func FuzzValidRung(f *testing.F) {
	for _, s := range []string{"", "full", "no-push", "lean", "off",
		"FULL", "full ", "totally-made-up", "full\x00", strings.Repeat("x", 4096)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := validRung(s)
		if got == "" {
			return
		}
		if got != s {
			t.Fatalf("validRung(%q) invented %q", s, got)
		}
		// Whatever passes must be a real ladder rung: these strings become
		// ledger keys and metric labels, so the set must stay closed.
		if _, ok := overload.ParseRung(got); !ok {
			t.Fatalf("validRung(%q) admitted an unknown rung", s)
		}
	})
}

func FuzzClampProb(f *testing.F) {
	for _, v := range []float64{0, 1, 0.5, -1, 2, math.NaN(),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -0.0} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, p float64) {
		got := clampProb(p)
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Fatalf("clampProb(%v) = %v outside [0, 1]", p, got)
		}
	})
}

func FuzzParseAttribToken(f *testing.F) {
	for _, s := range []string{"", "c:push:/pages/p0000.html", "w:prefetch:/a",
		"c:replica:/x", "x:push:/a", "c:push:", "c:push:relative", "c::/a",
		"c:push", "c:push:/a:b:c", "c:PUSH:/a", "w:push:/" + strings.Repeat("a", 2000),
		"c:push:/\x00", "::::", "c:push:/a c:push:/b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		consumed, class, path, ok := parseAttribToken(tok)
		if !ok {
			if consumed || class != "" || path != "" {
				t.Fatalf("parseAttribToken(%q) rejected but leaked (%v, %q, %q)",
					tok, consumed, class, path)
			}
			return
		}
		if !validAttribClass(class) {
			t.Fatalf("parseAttribToken(%q) admitted class %q", tok, class)
		}
		if path == "" || path[0] != '/' || len(path) > maxAttribPathLen {
			t.Fatalf("parseAttribToken(%q) admitted path %q", tok, path)
		}
	})
}

// FuzzIngestAttrib drives raw header bytes through the server's full
// Spec-Attrib ingestion path and asserts the ledger stays well-formed: no
// panic, class-map cardinality bounded to the known delivery classes, and
// no negative totals — regardless of what a hostile client sends. The
// tokens also train the estimator, so the same goes for the engine: a
// header records at most the accesses the server offered that client, and
// nothing on behalf of a client it offered nothing.
func FuzzIngestAttrib(f *testing.F) {
	site, err := webgraph.Generate(webgraph.TinySite(), stats.NewRNG(5))
	if err != nil {
		f.Fatal(err)
	}
	store := NewSiteStore(site)
	realPath, _ := store.Path(site.Entries[0])
	other := &site.Docs[len(site.Docs)-1]
	at := time.Date(1995, time.May, 1, 0, 0, 0, 0, time.UTC)

	cfg := DefaultServerConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Attrib = attrib.NewLedger(64, obs.NewRegistry())
	srv, err := NewServer(store, cfg)
	if err != nil {
		f.Fatal(err)
	}

	f.Add("c:push:" + realPath)
	f.Add("w:prefetch:" + realPath + " c:replica:" + realPath)
	f.Add(strings.Repeat("c:push:"+realPath+" ", 200))
	f.Add("c:evil:" + realPath + " w:push:/no/such/doc")
	f.Add("c:push:" + realPath + "\x00 w:::")
	f.Add(strings.Repeat("\t x", 5000))
	f.Add("c:prefetch:" + realPath + " c:prefetch:" + realPath + " w:prefetch:" + other.Path + " c:prefetch:" + other.Path)
	f.Fuzz(func(t *testing.T, header string) {
		// The in-place tokenizer reads what strings.Fields would.
		fields, rest := strings.Fields(header), header
		for i := 0; ; i++ {
			var tok string
			if tok, rest = nextAttribToken(rest); tok == "" {
				if i != len(fields) {
					t.Fatalf("tokenizer stopped after %d of %d fields of %q", i, len(fields), header)
				}
				break
			}
			if i >= len(fields) || tok != fields[i] {
				t.Fatalf("token %d of %q is %q, strings.Fields has %q", i, header, tok, fields)
			}
		}
		eng := srv.Engine()
		eng.Offer("offered", site.Entries[0], at, 500)
		eng.Offer("offered", other.ID, at, 250)
		before := eng.Stats()
		srv.ingestAttrib("stranger", header)
		if got := eng.Stats(); got.Recorded != before.Recorded || got.OffersOutstanding != before.OffersOutstanding {
			t.Fatalf("a client offered nothing moved the engine: %+v, was %+v", got, before)
		}
		srv.ingestAttrib("offered", header)
		after := eng.Stats()
		if grew := after.Recorded - before.Recorded; grew < 0 || grew > before.OffersOutstanding {
			t.Fatalf("engine recorded %d accesses against %d offers outstanding", grew, before.OffersOutstanding)
		}
		if settled := before.OffersOutstanding - after.OffersOutstanding; settled < 0 || after.OffersOutstanding < 0 ||
			settled < after.Recorded-before.Recorded {
			t.Fatalf("offers outstanding %d, were %d; %d recorded", after.OffersOutstanding, before.OffersOutstanding, after.Recorded-before.Recorded)
		}
		rep := cfg.Attrib.Report(8)
		for class := range rep.Classes {
			if !validAttribClass(class) {
				t.Fatalf("hostile header minted ledger class %q", class)
			}
		}
		tot := cfg.Attrib.TotalsSnapshot()
		if tot.ConsumedBytes < 0 || tot.WastedBytes < 0 || tot.Consumed < 0 || tot.Wasted < 0 {
			t.Fatalf("ledger totals went negative: %+v", tot)
		}
	})
}
