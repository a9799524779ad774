package httpspec

import (
	"math"
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
