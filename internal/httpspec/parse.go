package httpspec

import (
	"math"
	"strconv"
	"strings"
	"unicode"

	"specweb/internal/attrib"
	"specweb/internal/overload"
)

// This file hardens the speculative-protocol header parsers. Spec-P,
// Spec-Rung, Spec-Prefetch, and Spec-Attrib all cross a trust boundary —
// any client (or a middlebox) can send arbitrary bytes — and their values
// flow into the attribution ledger, whose integer sums and label maps
// must not be poisonable: a forged Spec-P of 2^62 would corrupt the
// confidence sums, and an unvalidated Spec-Rung becomes an unbounded
// label cardinality on the ledger's per-rung map. Every parser here
// rejects garbage to a safe zero value and never panics (fuzzed in
// parse_fuzz_test.go).

// parsePMilli parses a fixed-point thousandths probability (the Spec-P /
// Spec-Prefetch wire form). The result is always within [0, 1000];
// malformed or oversized input yields (0, false).
func parsePMilli(s string) (int64, bool) {
	if s == "" || len(s) > 20 {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return attrib.ClampPMilli(v), true
}

// validRung filters an externally supplied rung name against the known
// degradation ladder, returning "" for anything else so forged values
// never become ledger keys or metric labels.
func validRung(name string) string {
	if name == "" {
		return ""
	}
	if _, ok := overload.ParseRung(name); ok {
		return name
	}
	return ""
}

// clampProb bounds a parsed probability to [0, 1], mapping NaN and ±Inf
// to 0 (a NaN would otherwise survive comparisons and poison fixed-point
// conversion downstream).
func clampProb(p float64) float64 {
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Spec-Attrib ingestion bounds: the client caps its own piggyback at 32
// tokens, so anything far beyond that is hostile; paths are bounded so a
// single header cannot force megabytes through the store lookup.
const (
	maxAttribTokens  = 64
	maxAttribPathLen = 1024
)

// validAttribClass restricts feedback classes to the ledger's known
// delivery classes, keeping its per-class map cardinality bounded.
func validAttribClass(class string) bool {
	switch class {
	case attrib.ClassPush, attrib.ClassPrefetch, attrib.ClassReplica:
		return true
	}
	return false
}

// nextAttribToken cuts the first whitespace-separated token off a
// Spec-Attrib header, the way strings.Fields would, without the slice.
func nextAttribToken(header string) (tok, rest string) {
	header = strings.TrimLeftFunc(header, unicode.IsSpace)
	if i := strings.IndexFunc(header, unicode.IsSpace); i >= 0 {
		return header[:i], header[i:]
	}
	return header, ""
}

// parseAttribToken validates one Spec-Attrib token ("c:<class>:<path>"
// consumed, "w:<class>:<path>" wasted). ok is false for anything
// malformed: unknown kind, unknown class, or an implausible path.
func parseAttribToken(tok string) (consumed bool, class, path string, ok bool) {
	kind, rest, _ := strings.Cut(tok, ":")
	class, path, _ = strings.Cut(rest, ":")
	switch kind {
	case "c":
		consumed = true
	case "w":
	default:
		return false, "", "", false
	}
	if !validAttribClass(class) {
		return false, "", "", false
	}
	if path == "" || path[0] != '/' || len(path) > maxAttribPathLen {
		return false, "", "", false
	}
	return consumed, class, path, true
}
