package loadgen

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"specweb/internal/httpspec"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
)

// source is the workload a run is driven from. Both constructors yield
// the canonical order, and a client subset's stream is the full order
// restricted to that subset — so the drive never learns which one it has.
type source interface {
	// All streams every request.
	All() trace.Stream
	// Where streams the requests of the clients keep accepts.
	Where(keep func(trace.ClientID) bool) trace.Stream
}

// traceSource walks a materialized trace in index order. It never
// re-merges: ties keep the order the trace was built with, which is what
// every committed golden was recorded under.
type traceSource struct{ tr *trace.Trace }

func (s traceSource) All() trace.Stream { return &sliceWalk{reqs: s.tr.Requests} }

func (s traceSource) Where(keep func(trace.ClientID) bool) trace.Stream {
	return &sliceWalk{reqs: s.tr.Requests, keep: keep}
}

// sliceWalk yields the kept requests of a slice, in index order.
type sliceWalk struct {
	reqs []trace.Request
	keep func(trace.ClientID) bool // nil keeps all
	pos  int
}

func (w *sliceWalk) Next() (trace.Request, bool) {
	for w.pos < len(w.reqs) {
		req := &w.reqs[w.pos]
		w.pos++
		if w.keep == nil || w.keep(req.Client) {
			return *req, true
		}
	}
	return trace.Request{}, false
}

// cursorSource regenerates requests from per-client seeded cursors on
// every call: nothing is ever held beyond the cursors' open sessions.
type cursorSource struct{ gen *synth.Stream }

func (s cursorSource) All() trace.Stream { return s.gen.Merged() }

func (s cursorSource) Where(keep func(trace.ClientID) bool) trace.Stream {
	return trace.MergeCursors(s.gen.CursorsWhere(keep))
}

// cutter walks the global canonical stream once, in order. A cut is a
// global request index; advance returns it in every worker's own
// coordinates — how many of the worker's requests come before it — which
// is how one boundary (the warmup freeze, the restart harness's crash)
// becomes a window edge on each worker's lane.
type cutter struct {
	cfg  Config
	s    trace.Stream
	pos  int
	seen []int // per worker: in-shard requests consumed so far
}

// advance consumes the stream up to global index to, handing each request
// to visit (nil: just count).
func (c *cutter) advance(to int, visit func(trace.Request)) []int {
	for ; c.pos < to; c.pos++ {
		req, ok := c.s.Next()
		if !ok {
			break
		}
		if visit != nil {
			visit(req)
		}
		if w := c.cfg.laneOf(req.Client); w >= 0 {
			c.seen[w]++
		}
	}
	return append([]int(nil), c.seen...)
}

// lane is one driver's own request stream and how far it has been
// consumed. The driver works through half-open windows of it: requests
// before from belong to the warmup (already replayed sequentially —
// a cursor source regenerates and discards them, which is how it avoids
// ever buffering them), and each phase runs up to its own end.
type lane struct {
	s    trace.Stream
	from int
	pos  int
	rng  *stats.RNG
}

// next returns the lane's next measured request before position to.
func (l *lane) next(to int) (trace.Request, bool) {
	for l.pos < to {
		req, ok := l.s.Next()
		if !ok {
			break
		}
		l.pos++
		if l.pos > l.from {
			return req, true
		}
	}
	return trace.Request{}, false
}

// toEnd is the window edge of a phase that runs its lanes dry.
const toEnd = math.MaxInt

// drive runs the measurement phase. A worker's lane is the stream of the
// clients it owns (stable hash; a sharded run owns only its shard's), so
// per-client order is preserved no matter the worker count; the open
// loop's single lane is the dispatcher's, over all of the shard's clients.
func (r *run) drive(cut *cutter, skips []int) (*RestartInfo, error) {
	cfg := r.cfg
	root := stats.NewRNG(cfg.Seed).Split("loadgen")
	r.results = make([]*workerResult, cfg.Workers)
	for w := range r.results {
		r.results[w] = &workerResult{hist: NewHist()}
	}
	if cfg.OpenLoop && cfg.Rate > 0 {
		var skip int
		for _, n := range skips {
			skip += n
		}
		r.openLoop(&lane{s: r.src.Where(cfg.inShard), from: skip})
		return nil, nil
	}
	lanes := make([]*lane, cfg.Workers)
	for w := range lanes {
		lanes[w] = &lane{
			s:    r.src.Where(func(id trace.ClientID) bool { return cfg.laneOf(id) == w }),
			from: skips[w],
			rng:  root.Split(fmt.Sprintf("worker-%d", w)),
		}
	}
	if cfg.Restart != nil {
		return r.runRestart(cut, lanes)
	}
	r.closedLoop(lanes, nil)
	return nil, nil
}

// closedLoop walks every worker's lane back-to-back (with optional think
// time) up to its window end — nil: to the end of the lane — and waits
// for all of them.
func (r *run) closedLoop(lanes []*lane, ends []int) {
	var wg sync.WaitGroup
	for w, l := range lanes {
		to := toEnd
		if ends != nil {
			to = ends[w]
		}
		wg.Add(1)
		go func(l *lane, res *workerResult) {
			defer wg.Done()
			for req, ok := l.next(to); ok; req, ok = l.next(to) {
				c := r.clientFor(req.Client)
				if d := r.think(l.rng); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				_, fromCache, err := c.Get(req.Path)
				res.observe(time.Since(start), fromCache, err)
			}
		}(l, r.results[w])
	}
	wg.Wait()
}

// openReq is one paced arrival carried by value — the open loop never
// holds more than the bounded channel buffers.
type openReq struct {
	req trace.Request
	at  time.Time
}

// openStreamBuffer bounds each worker's in-flight arrival queue in the
// open loop. The dispatcher blocks when a worker falls this far behind;
// latency is still charged from the scheduled arrival time, so a stall
// surfaces as queueing delay, never as coordinated omission.
const openStreamBuffer = 1024

// openLoop paces arrivals off the dispatcher's lane at Rate/Burst and
// hands each to its owning worker; workers drain their channels
// sequentially, so per-client order holds while the dispatcher never
// waits for responses. Memory is O(workers · openStreamBuffer).
func (r *run) openLoop(l *lane) {
	cfg := r.cfg
	interval := time.Duration(float64(cfg.Burst) / cfg.Rate * float64(time.Second))
	chans := make([]chan openReq, cfg.Workers)
	var wg sync.WaitGroup
	for w := range chans {
		chans[w] = make(chan openReq, openStreamBuffer)
		wg.Add(1)
		go func(ch <-chan openReq, res *workerResult) {
			defer wg.Done()
			for it := range ch {
				_, fromCache, err := r.clientFor(it.req.Client).Get(it.req.Path)
				res.observe(time.Since(it.at), fromCache, err)
			}
		}(chans[w], r.results[w])
	}
	next := time.Now()
	dispatched := 0
	for req, ok := l.next(toEnd); ok; req, ok = l.next(toEnd) {
		if dispatched > 0 && dispatched%cfg.Burst == 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		chans[workerOf(req.Client, cfg.Workers)] <- openReq{req: req, at: next}
		dispatched++
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// clientFor returns the protocol client for id after applying the
// request-count session purge; callers own the client (the sequential
// warmup walk, the owning worker afterwards).
func (r *run) clientFor(id trace.ClientID) *httpspec.Client {
	cl := r.clients[id]
	if r.cfg.SessionGapRequests > 0 && cl.sinceSession >= r.cfg.SessionGapRequests {
		cl.c.EndSession()
		cl.sinceSession = 0
	}
	cl.sinceSession++
	return cl.c
}

func (r *run) think(rng *stats.RNG) time.Duration {
	d := r.cfg.Think
	if j := r.cfg.ThinkJitter; j > 0 {
		d += time.Duration(rng.Float64() * float64(j))
	}
	return d
}

func (res *workerResult) observe(d time.Duration, fromCache bool, err error) {
	if err != nil {
		if !errors.Is(err, httpspec.ErrShed) {
			res.errors++
		}
		return
	}
	res.hist.Observe(d)
	if !fromCache {
		res.missDurSum += d
		res.missCount++
	}
}
