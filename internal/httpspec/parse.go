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

// Spec-Accept is `token *( ";" parameter )` with optional blanks around
// each piece: the one token is "bundle", the parameters "prefetch=<p>", p the
// threshold in thousandths at or above which the client follows a hint —
// stated so that a hybrid server can send those documents behind the
// requested one instead of naming them — and "session=<token>", the opaque
// token of the client's current session, 1 to maxSessionLen bytes of
// [0-9a-z], under which the server keeps what it sent that session.
const (
	acceptBundle   = "bundle"
	acceptPrefetch = "prefetch="
	acceptSession  = "session="
	maxSessionLen  = 16
)

// parseAccept reads a Spec-Accept header. bundle is whether the client takes
// bundles: the token must be the known one, whatever follows it. prefetch is
// the threshold it stated, clamped like every probability off the wire, 0
// when it stated none; session is the session token it stated, "" when it
// stated none. An unknown or malformed parameter is no parameter, never no
// bundle, and of several well-formed ones of a name the last counts.
func parseAccept(header string) (bundle bool, prefetch int64, session string) {
	token, params, _ := strings.Cut(header, ";")
	if strings.Trim(token, " \t") != acceptBundle {
		return false, 0, ""
	}
	for params != "" {
		var param string
		param, params, _ = strings.Cut(params, ";")
		param = strings.Trim(param, " \t")
		if v, ok := strings.CutPrefix(param, acceptPrefetch); ok {
			if p, ok := parsePMilli(v); ok {
				prefetch = p
			}
		} else if v, ok := strings.CutPrefix(param, acceptSession); ok && validSession(v) {
			session = v
		}
	}
	return true, prefetch, session
}

// validSession reports whether v is a session token: 1 to maxSessionLen
// bytes of [0-9a-z].
func validSession(v string) bool {
	if v == "" || len(v) > maxSessionLen {
		return false
	}
	for i := 0; i < len(v); i++ {
		if c := v[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'z') {
			return false
		}
	}
	return true
}

// sessionKey is the engine's key for a session token: its FNV-1a hash, 0
// (the engine's "no session") only for no token.
func sessionKey(session string) uint64 {
	if session == "" {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(session); i++ {
		h = (h ^ uint64(session[i])) * 1099511628211
	}
	return h | 1
}

// prefetchMilli is the lowest probability in thousandths that, advertised
// as a hint's three decimals and read back, is at or above the threshold a
// client follows hints at: what it states in Spec-Accept, so that the server
// applies the rule followHints does. 0 for a client that follows none.
func prefetchMilli(threshold float64) int64 {
	if !(threshold > 0 && threshold <= 1) {
		return 0
	}
	// The product is rounded, so it can land on the wrong side of an integer.
	m := int64(math.Ceil(threshold * 1000))
	if float64(m-1)/1000 >= threshold {
		m--
	} else if float64(m)/1000 < threshold {
		m++
	}
	return m
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
