// Package trace defines specweb's access-trace model and the operations the
// paper performs on raw HTTP logs: Common Log Format reading and writing,
// the preprocessing of §3.2 (dropping accesses to non-existent documents and
// scripts, renaming aliases), per-client ordering, and the segmentation of a
// client's request stream into traversal strides and sessions
// (StrideTimeout / SessionTimeout, §3.2).
package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"specweb/internal/webgraph"
)

// ClientID identifies a requesting client (host or proxy) in a trace.
type ClientID string

// Request is one client-initiated document access.
type Request struct {
	Time   time.Time
	Client ClientID
	Doc    webgraph.DocID
	Size   int64 // bytes transferred (the document size at access time)
	Remote bool  // true if the client is outside the server's organization
	Status int   // HTTP status; preprocessing keeps only 200s
	Path   string
}

// Trace is a time-ordered sequence of requests against one site.
type Trace struct {
	Requests []Request

	// idx caches the per-client view (Clients / ByClient). It is built
	// lazily on first use and considered valid only while len(Requests)
	// is unchanged; SortByTime and Invalidate drop it. Callers that
	// mutate Requests in place without changing its length must call
	// Invalidate themselves.
	idx *clientIndex
}

// clientIndex is the cached per-client view of a trace.
type clientIndex struct {
	n        int // len(Requests) the index was built against
	order    []ClientID
	byClient map[ClientID][]Request
}

// index returns the cached per-client view, rebuilding it when stale.
// One O(n) pass replaces what used to be a fresh map + slice per call —
// the refresh paths (engine flush, estguard, loadgen setup) call Clients
// and ByClient repeatedly on the same trace, and Strides/Sessions used to
// rescan the whole trace once per client.
func (t *Trace) index() *clientIndex {
	if t.idx != nil && t.idx.n == len(t.Requests) {
		return t.idx
	}
	// Number the clients in first-appearance order and count their
	// requests, then lay the per-client sequences end to end in one array:
	// one map lookup per request and three allocations, however many
	// clients there are.
	ordinal := make(map[ClientID]int32)
	of := make([]int32, len(t.Requests)) // request → its client's ordinal
	var order []ClientID
	var ends []int // per ordinal: request count, then where its sequence ends
	for i := range t.Requests {
		c := t.Requests[i].Client
		o, seen := ordinal[c]
		if !seen {
			o = int32(len(order))
			ordinal[c] = o
			order = append(order, c)
			ends = append(ends, 0)
		}
		of[i] = o
		ends[o]++
	}
	for o := 1; o < len(ends); o++ {
		ends[o] += ends[o-1]
	}
	next := make([]int, len(ends)+1) // per ordinal: where its next request goes
	copy(next[1:], ends)
	all := make([]Request, len(t.Requests))
	for i := range t.Requests {
		all[next[of[i]]] = t.Requests[i]
		next[of[i]]++
	}
	idx := &clientIndex{n: len(t.Requests), order: order, byClient: make(map[ClientID][]Request, len(order))}
	start := 0
	for o, c := range order {
		idx.byClient[c] = all[start:ends[o]:ends[o]]
		start = ends[o]
	}
	t.idx = idx
	return idx
}

// Invalidate drops the cached per-client index. Mutating Requests in
// place (without changing its length) requires an explicit Invalidate;
// appends and SortByTime invalidate implicitly.
func (t *Trace) Invalidate() { t.idx = nil }

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	return &Trace{Requests: append([]Request(nil), t.Requests...)}
}

// Span returns the first and last request times. ok is false for an empty
// trace.
func (t *Trace) Span() (first, last time.Time, ok bool) {
	if len(t.Requests) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return t.Requests[0].Time, t.Requests[len(t.Requests)-1].Time, true
}

// SortByTime orders requests chronologically (stable, so simultaneous
// requests keep their relative order).
func (t *Trace) SortByTime() {
	t.Invalidate()
	SortRequests(t.Requests)
}

// SortRequests is SortByTime for a bare request slice.
//
// Traces arrive as a few time-ordered runs laid end to end — one per
// session from the generator, one per ingestion shard from the engine — so
// this is a natural merge sort, and it sorts 16-byte keys rather than the
// 88-byte requests, which then move once each.
func SortRequests(reqs []Request) {
	if len(reqs) < 2 {
		return
	}
	// A key is the request's distance from the first one: Sub, like
	// Compare, reads the monotonic clock when both times carry it. It
	// saturates past ±292 years, where keys would tie that times do not;
	// such a trace takes the general sort.
	keys := make([]timeKey, len(reqs), 2*len(reqs))
	bounds := []int{0} // bounds[r] is where run r starts; len(reqs) closes the list
	for i := range reqs {
		d := reqs[i].Time.Sub(reqs[0].Time)
		if d == math.MinInt64 || d == math.MaxInt64 {
			slices.SortStableFunc(reqs, func(a, b Request) int { return a.Time.Compare(b.Time) })
			return
		}
		keys[i] = timeKey{d: d, from: int32(i)}
		if i > 0 && d < keys[i-1].d {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(reqs))
	src, dst := keys, keys[len(reqs):cap(keys)]
	for len(bounds) > 2 {
		merged := bounds[:1]
		for r := 0; r+1 < len(bounds); r += 2 {
			lo, mid, hi := bounds[r], bounds[r+1], bounds[r+1]
			if r+2 < len(bounds) {
				hi = bounds[r+2]
			}
			a, b, k := lo, mid, lo
			for a < mid && b < hi {
				// Ties go to the left run, which came first.
				if src[b].d < src[a].d {
					dst[k] = src[b]
					b++
				} else {
					dst[k] = src[a]
					a++
				}
				k++
			}
			k += copy(dst[k:], src[a:mid])
			copy(dst[k:], src[b:hi])
			merged = append(merged, hi)
		}
		bounds = merged
		src, dst = dst, src
	}

	// src[k].from is the request that belongs at k: move each cycle of
	// that permutation round through one spare request.
	for start := range src {
		if int(src[start].from) == start {
			continue
		}
		spare := reqs[start]
		k := start
		for {
			from := int(src[k].from)
			src[k].from = int32(k)
			if from == start {
				reqs[k] = spare
				break
			}
			reqs[k] = reqs[from]
			k = from
		}
	}
}

// timeKey is a request's sort key and the index it came from.
type timeKey struct {
	d    time.Duration
	from int32
}

// Validate checks trace invariants: chronological order and non-negative
// sizes.
func (t *Trace) Validate() error {
	for i := range t.Requests {
		r := &t.Requests[i]
		if r.Size < 0 {
			return fmt.Errorf("trace: request %d has negative size %d", i, r.Size)
		}
		if r.Client == "" {
			return fmt.Errorf("trace: request %d has empty client", i)
		}
		if i > 0 && r.Time.Before(t.Requests[i-1].Time) {
			return fmt.Errorf("trace: request %d out of order (%v before %v)",
				i, r.Time, t.Requests[i-1].Time)
		}
	}
	return nil
}

// Clients returns the distinct client IDs in first-appearance order. The
// slice is served from the cached index: treat it as read-only.
func (t *Trace) Clients() []ClientID {
	return t.index().order
}

// ByClient groups requests per client, preserving chronological order within
// each client. The map is served from the cached index: treat it as
// read-only.
func (t *Trace) ByClient() map[ClientID][]Request {
	return t.index().byClient
}

// TotalBytes sums the bytes of all requests.
func (t *Trace) TotalBytes() int64 {
	var b int64
	for i := range t.Requests {
		b += t.Requests[i].Size
	}
	return b
}

// RemoteFraction returns the fraction of requests issued by remote clients.
func (t *Trace) RemoteFraction() float64 {
	if len(t.Requests) == 0 {
		return 0
	}
	n := 0
	for i := range t.Requests {
		if t.Requests[i].Remote {
			n++
		}
	}
	return float64(n) / float64(len(t.Requests))
}

// Window returns the sub-trace with request times in [from, to).
// The trace must be time-sorted.
func (t *Trace) Window(from, to time.Time) *Trace {
	lo := sort.Search(len(t.Requests), func(i int) bool {
		return !t.Requests[i].Time.Before(from)
	})
	hi := sort.Search(len(t.Requests), func(i int) bool {
		return !t.Requests[i].Time.Before(to)
	})
	return &Trace{Requests: t.Requests[lo:hi]}
}

// Stride is a maximal run of one client's requests in which successive
// requests are separated by less than the stride timeout (§3.2: "a sequence
// of requests where the time between successive requests is less than
// StrideTimeout seconds"). Strides are the unit over which document
// dependencies are significant.
type Stride struct {
	Client   ClientID
	Requests []Request
}

// Segment splits one client's chronologically ordered requests into maximal
// runs with inter-request gaps strictly less than timeout. A non-positive
// timeout yields one single-request segment per request.
func Segment(reqs []Request, timeout time.Duration) [][]Request {
	if len(reqs) == 0 {
		return nil
	}
	var out [][]Request
	start := 0
	for i := 1; i < len(reqs); i++ {
		if timeout <= 0 || reqs[i].Time.Sub(reqs[i-1].Time) >= timeout {
			out = append(out, reqs[start:i])
			start = i
		}
	}
	out = append(out, reqs[start:])
	return out
}

// Strides segments the whole trace into per-client strides using
// strideTimeout. The result preserves chronological order within each
// stride; stride order follows each client's first request.
func (t *Trace) Strides(strideTimeout time.Duration) []Stride {
	var out []Stride
	for _, c := range t.Clients() {
		reqs := t.clientRequests(c)
		for _, seg := range Segment(reqs, strideTimeout) {
			out = append(out, Stride{Client: c, Requests: seg})
		}
	}
	return out
}

// Session is a maximal run of one client's requests with gaps below the
// session timeout; it is the lifetime of the paper's client cache model
// ("a document ... remains in the cache until it is purged at the end of
// the session", §3.2).
type Session struct {
	Client   ClientID
	Requests []Request
}

// Sessions segments the trace into per-client sessions using
// sessionTimeout. Passing a non-positive timeout models cache-less clients
// (every request its own session); the paper's SessionTimeout = ∞ is
// expressed by passing a duration longer than the trace span.
func (t *Trace) Sessions(sessionTimeout time.Duration) []Session {
	var out []Session
	for _, c := range t.Clients() {
		reqs := t.clientRequests(c)
		for _, seg := range Segment(reqs, sessionTimeout) {
			out = append(out, Session{Client: c, Requests: seg})
		}
	}
	return out
}

func (t *Trace) clientRequests(c ClientID) []Request {
	return t.index().byClient[c]
}
