package trace

import (
	"container/heap"
	"time"
)

// Stream yields requests one at a time in canonical trace order. It is the
// streaming counterpart of Trace.Requests: a consumer that only needs each
// request once (the CLF writer, the load generator's warmup walk) holds
// O(1) requests instead of O(trace).
type Stream interface {
	// Next returns the next request, or ok=false at end of stream.
	Next() (Request, bool)
}

// ClientCursor is one client's request stream with a non-generating peek.
// The peek is what keeps a k-way merge over a large client population
// cheap: the merge heap orders cursors by their next event *time* without
// forcing every cursor to materialize its next session up front, so only
// clients with a session actually in flight hold any buffered requests.
type ClientCursor interface {
	// Client identifies the cursor's client; all requests it yields carry
	// this ID. It is the cross-client tiebreaker of the canonical order.
	Client() ClientID
	// PeekTime returns the UnixNano timestamp of the next request without
	// generating it, or ok=false when the cursor is exhausted. Next must
	// return a request with exactly this timestamp.
	PeekTime() (int64, bool)
	// Next generates and returns the next request.
	Next() (Request, bool)
}

// mergeEntry is one live cursor in the merge heap.
type mergeEntry struct {
	c  ClientCursor
	at int64 // next event time, UnixNano
	id ClientID
}

type mergeHeap []mergeEntry

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeEntry)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}

// Merged is a Stream over a set of client cursors in canonical order:
// ascending time, ties broken by ClientID, and within one client by that
// client's own generation order. Because the order is a total order on
// events that never references the cursor set, merging any subset of
// clients yields exactly the full merge restricted to that subset — the
// property that makes shard-partitioned replay byte-identical to a
// single-process run regardless of shard count.
type Merged struct {
	h mergeHeap
}

// MergeCursors builds the canonical-order merge of the given cursors.
// Exhausted cursors are dropped immediately; the rest never buffer more
// than their currently open session.
func MergeCursors(cs []ClientCursor) *Merged {
	m := &Merged{h: make(mergeHeap, 0, len(cs))}
	for _, c := range cs {
		if at, ok := c.PeekTime(); ok {
			m.h = append(m.h, mergeEntry{c: c, at: at, id: c.Client()})
		}
	}
	heap.Init(&m.h)
	return m
}

// Next pops the globally earliest request across all cursors.
func (m *Merged) Next() (Request, bool) {
	if len(m.h) == 0 {
		return Request{}, false
	}
	e := &m.h[0]
	req, ok := e.c.Next()
	if !ok {
		// A cursor whose PeekTime succeeded must yield; treat a refusal
		// as exhaustion.
		heap.Pop(&m.h)
		return m.Next()
	}
	if at, more := e.c.PeekTime(); more {
		e.at = at
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return req, true
}

// Materialize drains a stream into a Trace. The result is already in
// canonical order, so it passes Validate without re-sorting.
func Materialize(s Stream) *Trace {
	t := &Trace{}
	for {
		req, ok := s.Next()
		if !ok {
			return t
		}
		t.Requests = append(t.Requests, req)
	}
}

// CountStream drains a stream, returning the request count, the distinct
// clients in first-appearance order (matching Trace.Clients) and the first
// timestamp — the facts the load generator's sizing pass needs without
// holding any request.
func CountStream(s Stream) (n int, clients []ClientID, first time.Time) {
	seen := make(map[ClientID]bool)
	for {
		req, ok := s.Next()
		if !ok {
			return n, clients, first
		}
		if n == 0 {
			first = req.Time
		}
		n++
		if !seen[req.Client] {
			seen[req.Client] = true
			clients = append(clients, req.Client)
		}
	}
}

// SliceCursor adapts one client's pre-materialized, time-ordered requests
// to the ClientCursor interface (tests and trace-file replay).
type SliceCursor struct {
	ID   ClientID
	Reqs []Request
	pos  int
}

// Client returns the cursor's client ID.
func (c *SliceCursor) Client() ClientID { return c.ID }

// PeekTime reports the next request's timestamp.
func (c *SliceCursor) PeekTime() (int64, bool) {
	if c.pos >= len(c.Reqs) {
		return 0, false
	}
	return c.Reqs[c.pos].Time.UnixNano(), true
}

// Next yields the next request.
func (c *SliceCursor) Next() (Request, bool) {
	if c.pos >= len(c.Reqs) {
		return Request{}, false
	}
	r := c.Reqs[c.pos]
	c.pos++
	return r, true
}
