//go:build linux

package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span kinds, one per boundary the harness can wrap from outside.
const (
	kindGet       = iota // client.get: Client.Get as the driver calls it
	kindRoundTrip        // transport.roundtrip: RoundTripper.RoundTrip
	kindBody             // transport.body: reading the response body to EOF
	kindServe            // server.serve: Server.ServeHTTP
	kindContent          // store.content: Store.Content
	kindWrite            // resp.write: ResponseWriter.Write
	numKinds
)

var kindNames = [numKinds]string{
	"client.get", "transport.roundtrip", "transport.body",
	"server.serve", "store.content", "resp.write",
}

// span is one timed call. Parent indexes the span buffer (-1 for a root)
// and always precedes the child in the buffer, because a caller begins
// its span before the callee begins its own.
type span struct {
	Kind   uint8
	Guess  bool  // parent picked among several open candidates
	Req    int32 // trace request the span belongs to, -1 if unknown
	Parent int32
	Start  int64 // nanoseconds since the buffer's origin
	End    int64
}

// spanBuf is a span buffer that any goroutine may append to: a slot is
// claimed with one atomic add, then written by its owner alone. Storage is
// allocated a chunk at a time, so the buffer needs no guess at how many
// spans a pass will produce.
type spanBuf struct {
	t0      time.Time
	chunks  [maxChunks]atomic.Pointer[spanChunk]
	next    atomic.Int64
	dropped atomic.Int64
}

const (
	chunkBits = 16
	maxChunks = 512 // 33M spans, 1 GiB: far beyond any pass here
)

type spanChunk [1 << chunkBits]span

func newSpanBuf() *spanBuf { return &spanBuf{t0: time.Now()} }

func (b *spanBuf) now() int64 { return int64(time.Since(b.t0)) }

// at returns slot i, allocating its chunk on first touch.
func (b *spanBuf) at(i int32) *span {
	slot := &b.chunks[i>>chunkBits]
	c := slot.Load()
	if c == nil {
		c = new(spanChunk)
		if !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	return &c[i&(1<<chunkBits-1)]
}

// begin claims a slot and stamps its start; it returns -1 (and counts a
// drop) when the buffer is full.
func (b *spanBuf) begin(kind uint8, req, parent int32) int32 {
	i := b.next.Add(1) - 1
	if i >= maxChunks<<chunkBits {
		b.dropped.Add(1)
		return -1
	}
	*b.at(int32(i)) = span{Kind: kind, Req: req, Parent: parent, Start: b.now()}
	return int32(i)
}

func (b *spanBuf) end(i int32) {
	if i >= 0 {
		b.at(i).End = b.now()
	}
}

// recorded copies the filled slots into one slice. Call it only after
// every writer has finished.
func (b *spanBuf) recorded() []span {
	n := b.next.Load()
	if n > maxChunks<<chunkBits {
		n = maxChunks << chunkBits
	}
	out := make([]span, 0, n)
	for c := 0; int64(len(out)) < n; c++ {
		chunk := b.chunks[c].Load()
		take := n - int64(len(out))
		if take > int64(len(chunk)) {
			take = int64(len(chunk))
		}
		out = append(out, chunk[:take]...)
	}
	return out
}

// adoptContent gives each parentless store.content span the server.serve
// span that was open around it. The store is shared by all connections and
// its interface carries no request, so the parent is found afterwards from
// the timestamps: exact when one serve was open, otherwise the most
// recently started one, marked Guess. Either way the span lands under a
// server.serve, so per-kind totals are exact.
func adoptContent(spans []span) {
	var serves, orphans []int32
	for i := range spans {
		switch {
		case spans[i].Kind == kindServe:
			serves = append(serves, int32(i))
		case spans[i].Kind == kindContent && spans[i].Parent < 0:
			orphans = append(orphans, int32(i))
		}
	}
	byStart := func(idx []int32) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	byStart(serves)
	byStart(orphans)
	var open []int32
	next := 0
	for _, o := range orphans {
		c := &spans[o]
		for next < len(serves) && spans[serves[next]].Start <= c.Start {
			open = append(open, serves[next])
			next++
		}
		keep := open[:0]
		for _, s := range open {
			if spans[s].End >= c.Start {
				keep = append(keep, s)
			}
		}
		open = keep
		found := 0
		for _, s := range open {
			// A parent precedes its child in the buffer.
			if s < o && spans[s].End >= c.End {
				found++
				if c.Parent < 0 || spans[s].Start > spans[c.Parent].Start {
					c.Parent = s
				}
			}
		}
		if c.Parent >= 0 {
			c.Req = spans[c.Parent].Req
			c.Guess = found > 1
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Every span is first clipped to its parent's
// (already clipped) interval, so a callee that outlives its caller — a
// server still writing after the client has the headers — counts only
// while the caller waited, and the self times of a tree sum to the
// duration of its root. Overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	n := len(spans)
	lo := make([]int64, n)
	hi := make([]int64, n)
	kids := make([]int32, n+1) // kids[p+1] = number of children of p, then offsets
	for i := range spans {
		s, e := spans[i].Start, spans[i].End
		if p := spans[i].Parent; p >= 0 && int(p) < i {
			if s < lo[p] {
				s = lo[p]
			}
			if e > hi[p] {
				e = hi[p]
			}
			kids[p+1]++
		}
		if e < s {
			e = s
		}
		lo[i], hi[i] = s, e
	}
	for p := 0; p < n; p++ {
		kids[p+1] += kids[p]
	}
	child := make([]int32, kids[n])
	fill := append([]int32(nil), kids[:n]...)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && int(p) < i {
			child[fill[p]] = int32(i)
			fill[p]++
		}
	}
	self := make([]int64, n)
	for p := 0; p < n; p++ {
		self[p] = hi[p] - lo[p]
		cs := child[kids[p]:kids[p+1]]
		if len(cs) == 0 {
			continue
		}
		sort.Slice(cs, func(a, b int) bool { return lo[cs[a]] < lo[cs[b]] })
		covered, end := int64(0), lo[p]
		for _, c := range cs {
			s, e := lo[c], hi[c]
			if s < end {
				s = end
			}
			if e > s {
				covered += e - s
				end = e
			}
		}
		self[p] -= covered
	}
	return self
}

// kindTotals is one row of the cost ledger.
type kindTotals struct {
	Count  int64 `json:"count"`
	DurNS  int64 `json:"dur_ns"`
	SelfNS int64 `json:"self_ns"`
}

// ledgerOf folds spans into per-kind totals.
func ledgerOf(spans []span) [numKinds]kindTotals {
	var led [numKinds]kindTotals
	self := selfTimes(spans)
	for i := range spans {
		k := &led[spans[i].Kind]
		k.Count++
		k.DurNS += spans[i].End - spans[i].Start
		k.SelfNS += self[i]
	}
	return led
}

// writeSpans dumps spans as JSON lines: name, start, end, parent, request.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		row := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Req    int32  `json:"req"`
			Guess  bool   `json:"parent_guessed,omitempty"`
		}{i, kindNames[s.Kind], s.Start, s.End, s.Parent, s.Req, s.Guess}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}
