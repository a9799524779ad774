//go:build linux

package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// counts is the deterministic side of a stretch of traffic: a function of
// the trace and the frozen model alone, identical on every pass of a
// frozen workload.
type counts struct {
	Req         int64 `json:"req"`
	CacheHits   int64 `json:"cache_hits"`
	SpecHits    int64 `json:"spec_hits"`
	Pushed      int64 `json:"pushed"`
	Prefetched  int64 `json:"prefetched"`
	BytesIn     int64 `json:"bytes_in"`
	DemandBytes int64 `json:"demand_bytes"`
	MissBytes   int64 `json:"miss_bytes"`
	Serves      int64 `json:"server_requests"`
}

func (a counts) minus(b counts) counts {
	return counts{
		a.Req - b.Req, a.CacheHits - b.CacheHits, a.SpecHits - b.SpecHits,
		a.Pushed - b.Pushed, a.Prefetched - b.Prefetched, a.BytesIn - b.BytesIn,
		a.DemandBytes - b.DemandBytes, a.MissBytes - b.MissBytes, a.Serves - b.Serves,
	}
}

// counts sums the client counters and the serves seen by the handler
// wrapper since the stack was built.
func (s *stack) counts() counts {
	var c counts
	for _, cl := range s.clients {
		cs := cl.c.Stats()
		c.Req += cs.Fetches
		c.CacheHits += cs.CacheHits
		c.SpecHits += cs.SpecHits
		c.Pushed += cs.Pushed
		c.Prefetched += cs.Prefetched
		c.BytesIn += cs.BytesIn
		c.DemandBytes += cs.DemandBytes
		c.MissBytes += cs.MissBytes
	}
	c.Serves = s.served.serves.Load()
	return c
}

// segment is what one measured stretch of fixed work produced: one pass
// over the measured trace, or a warm-up.
type segment struct {
	wallNS int64
	cpuNS  int64 // getrusage user+sys of the whole process
	req    int64
	failed int64
	// serviceNS is the time inside Client.Get summed over all requests.
	// demand holds, ascending, what the issuer of each request the client
	// cache did not serve waited: the time inside Client.Get, plus, on the
	// open loop, the time since the request was due. cached says, per
	// request in trace order, whether the client cache served it.
	serviceNS int64
	demand    []int64
	cached    []bool
	// refresh holds, in the order they happened, the latency of requests
	// during which the engine completed a refresh (sequential replays only).
	refresh []int64
	// late holds, ascending, how long after its due time each open-loop
	// request started while its worker was free.
	late   []int64
	idleNS int64 // worker time not spent on requests, summed over workers

	mallocs    uint64
	allocBytes uint64
	gcCPUs     float64
	gcPauseMax uint64
	// stolenFrac is the share of the CPU time the machine's processes
	// asked for during the segment that the hypervisor gave to someone else.
	stolenFrac float64
}

// workerLog is what one worker keeps of a segment besides the per-request
// samples, which it writes into the segment's slices at its own requests.
type workerLog struct {
	refresh []int64
	late    []int64
	failed  int64
	busyNS  int64
}

// driver replays trace requests against a stack and checks every body.
type driver struct {
	wd *world
	st *stack
	// stub, when set, answers every request with the expected body
	// instead of calling the client: what is left is the driver's own cost.
	stub [][]byte
}

// get issues request i on its client: session purge, Client.Get (under a
// client.get span while tracing), then the output check. It returns the
// latency of the Get alone.
func (d *driver) get(i int32, log *workerLog) (elapsed int64, fromCache bool) {
	req := &d.wd.tr.Requests[i]
	cl := d.st.clients[d.wd.clientOf[i]]
	if cl.since >= sessionRequests {
		cl.c.EndSession()
		cl.since = 0
	}
	cl.since++

	ln := d.st.lanes[cl.lane]
	p := d.st.probe
	tracing := p.on.Load()
	if tracing {
		ln.curReq = i
		ln.curGet = p.buf.begin(kindGet, i, -1)
	}
	var body []byte
	var err error
	start := time.Now()
	if d.stub != nil {
		body, fromCache = d.stub[req.Doc], true
	} else {
		body, fromCache, err = cl.c.Get(req.Path)
	}
	elapsed = int64(time.Since(start))
	if tracing {
		p.buf.end(ln.curGet)
		ln.curGet, ln.curReq = -1, -1
	}
	if err != nil || !d.wd.bodyOK(i, body) {
		log.failed++
	}
	return elapsed, fromCache
}

// bodyOK is the output check: the body has the site's size for the
// document and carries the synthetic header naming the requested path.
func (wd *world) bodyOK(i int32, body []byte) bool {
	const prefix = "specweb synthetic "
	const headerMax = 256 // the header line is far shorter
	doc := wd.tr.Requests[i].Doc
	if int64(len(body)) != wd.site.Doc(doc).Size {
		return false
	}
	head := body
	if len(head) > headerMax {
		head = head[:headerMax]
	}
	if len(head) < len(prefix) {
		return string(head) == prefix[:len(head)]
	}
	if string(head[:len(prefix)]) != prefix {
		return false
	}
	// A document shorter than its header holds a truncated one.
	return len(body) < headerMax || bytes.Contains(head, wd.marker[doc])
}

// samples is the latency recorder of a segment under measurement: one
// preallocated entry per request. Request i of the trace is entry i-from,
// written by the one worker that issues it. service is the time inside
// Client.Get, latency what the issuer waited.
type samples struct {
	from             int
	service, latency []int64
	cached           []bool
}

// newSamples makes room for requests [from, to). Apart distinguishes
// latency from service (open loop).
func newSamples(from, to int, apart bool) *samples {
	s := &samples{from: from, service: make([]int64, to-from), cached: make([]bool, to-from)}
	s.latency = s.service
	if apart {
		s.latency = make([]int64, to-from)
	}
	return s
}

func (s *samples) observe(i int32, latency, service int64, fromCache bool) {
	k := int(i) - s.from
	s.service[k] = service
	s.latency[k] = latency
	s.cached[k] = fromCache
}

// demandLatencies returns, ascending, the latencies of the requests the
// client cache did not serve.
func demandLatencies(latency []int64, cached []bool) []int64 {
	out := make([]int64, 0, len(latency))
	for i, l := range latency {
		if !cached[i] {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

// resources is a snapshot of the process-wide meters a segment diffs.
type resources struct {
	cpuNS   int64
	mem     runtime.MemStats
	gcCPUs  float64
	machine machineTicks
	started time.Time
}

// machineTicks is the first line of /proc/stat: clock ticks the whole
// machine spent running something, and ticks a virtual CPU was runnable
// but the hypervisor ran another guest. Both stay 0 where the file cannot
// be read.
type machineTicks struct{ busy, stolen int64 }

// stolenSince is the share of the CPU time asked for since before that
// was stolen.
func (t machineTicks) stolenSince(before machineTicks) float64 {
	stolen := t.stolen - before.stolen
	return ratio(float64(stolen), float64(t.busy-before.busy+stolen))
}

func readMachineTicks() machineTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machineTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return machineTicks{}
	}
	var t machineTicks
	for i, s := range f[1:9] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return machineTicks{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.stolen = n
		default:
			t.busy += n
		}
	}
	return t
}

func takeResources() resources {
	var r resources
	runtime.ReadMemStats(&r.mem)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPUs = sample[0].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	r.machine = readMachineTicks()
	r.started = time.Now()
	return r
}

// finish folds the samples, the workers' logs and the resource deltas
// into a segment.
func (before resources) finish(sm *samples, logs []workerLog) segment {
	wall := time.Since(before.started)
	after := takeResources()
	seg := segment{
		wallNS:     int64(wall),
		cpuNS:      after.cpuNS - before.cpuNS,
		req:        int64(len(sm.service)),
		demand:     demandLatencies(sm.latency, sm.cached),
		cached:     sm.cached,
		mallocs:    after.mem.Mallocs - before.mem.Mallocs,
		allocBytes: after.mem.TotalAlloc - before.mem.TotalAlloc,
		gcCPUs:     after.gcCPUs - before.gcCPUs,
	}
	seg.stolenFrac = after.machine.stolenSince(before.machine)
	for _, ns := range sm.service {
		seg.serviceNS += ns
	}
	for n := before.mem.NumGC; n < after.mem.NumGC; n++ {
		if p := after.mem.PauseNs[n%uint32(len(after.mem.PauseNs))]; p > seg.gcPauseMax {
			seg.gcPauseMax = p
		}
	}
	var late [][]int64
	for i := range logs {
		l := &logs[i]
		seg.refresh = append(seg.refresh, l.refresh...) // only the sequential replay, one log, has any
		late = append(late, l.late)
		seg.failed += l.failed
		seg.idleNS += int64(wall) - l.busyNS
	}
	seg.late = sortedMerge(late...)
	return seg
}

// closedSegment replays requests [from, to), each worker its lane's
// requests back to back: a client's next request is sent only after its
// previous one completed.
func (d *driver) closedSegment(from, to int) segment {
	queues := d.laneQueues(from, to)
	sm := newSamples(from, to, false)
	var logs [workers]workerLog
	before := takeResources()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			log := &logs[w]
			for _, i := range queues[w] {
				elapsed, fromCache := d.get(i, log)
				sm.observe(i, elapsed, elapsed, fromCache)
			}
			log.busyNS = int64(time.Since(before.started))
		}(w)
	}
	wg.Wait()
	return before.finish(sm, logs[:])
}

// sleepUntil blocks the calling thread in nanosleep. Go's own timers
// round an idle sleep up to the next millisecond, which at thousands of
// arrivals per second and connection would turn the schedule into bursts.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early, the loop sleeps the rest
	}
}

// openSegment replays requests [from, to) on a schedule: request k is due
// k/rate after the segment starts, on the connection its client is pinned
// to, whether or not earlier ones have completed on the other connection;
// a connection still busy at the due time sends as soon as it is free.
// Latency runs from the due time, so a stall is charged to every request
// it delays.
func (d *driver) openSegment(from, to int, rate float64) segment {
	queues := d.laneQueues(from, to)
	sm := newSamples(from, to, true)
	var logs [workers]workerLog
	for w := range logs {
		logs[w].late = make([]int64, 0, len(queues[w]))
	}
	before := takeResources()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			log := &logs[w]
			free := before.started
			for _, i := range queues[w] {
				at := before.started.Add(time.Duration(float64(int(i)-from) / rate * float64(time.Second)))
				sleepUntil(at)
				began := time.Now()
				ready := at
				if free.After(at) {
					ready = free
				}
				log.late = append(log.late, int64(began.Sub(ready)))
				elapsed, fromCache := d.get(i, log)
				log.busyNS += elapsed
				free = began.Add(time.Duration(elapsed))
				sm.observe(i, int64(free.Sub(at)), elapsed, fromCache)
			}
		}(w)
	}
	wg.Wait()
	return before.finish(sm, logs[:])
}

// sequentialSegment replays requests [from, to) on one goroutine with the
// virtual clock following the trace, so the engine's refreshes fire when
// the timestamps say. It returns the time of the last request.
func (d *driver) sequentialSegment(from, to int) (segment, time.Time) {
	sm := newSamples(from, to, false)
	var log workerLog
	eng := d.st.srv.Engine()
	refreshes := eng.Stats().Refreshes
	var last time.Time
	before := takeResources()
	for i := from; i < to; i++ {
		last = d.wd.tr.Requests[i].Time
		d.st.vnow.Store(last.UnixNano())
		elapsed, fromCache := d.get(int32(i), &log)
		sm.observe(int32(i), elapsed, elapsed, fromCache)
		if n := eng.Stats().Refreshes; n != refreshes {
			refreshes = n
			log.refresh = append(log.refresh, elapsed)
		}
	}
	log.busyNS = int64(time.Since(before.started))
	return before.finish(sm, []workerLog{log}), last
}

// warm trains the engine on the leading part of the trace, freezes the
// clock at the boundary, refreshes once and empties every client cache.
// It returns the latencies of the requests that crossed a refresh, in order.
func (d *driver) warm() (refresh []int64, failed int64) {
	if d.wd.warmN == 0 {
		return nil, 0
	}
	seg, freezeAt := d.sequentialSegment(0, d.wd.warmN)
	d.st.vnow.Store(freezeAt.UnixNano())
	d.st.srv.Engine().Refresh(freezeAt)
	d.st.purgeSessions()
	return seg.refresh, seg.failed
}

// laneQueues partitions requests [from, to) by lane, keeping each
// client's order.
func (d *driver) laneQueues(from, to int) [workers][]int32 {
	var q [workers][]int32
	for i := from; i < to; i++ {
		ln := d.st.clients[d.wd.clientOf[i]].lane
		q[ln] = append(q[ln], int32(i))
	}
	return q
}
