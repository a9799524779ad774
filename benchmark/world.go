//go:build linux

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"specweb/internal/netsim"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// workers is the number of client drivers and connections. It is a
// constant of the benchmark, not read from the machine, so numbers from
// different machines describe the same experiment.
const workers = 2

// baseSeed generates every workload's site, client topology and
// sessions: what exists and what each client asks for, in which order.
// The command-line seed re-times the clients against each other: every
// client's measured requests are delayed by one seeded offset of up to
// retimeWindow, which changes how the clients interleave on the server
// and on their connections but not what any of them requests.
//
// Reseeding the content as well was tried and dropped. Document sizes are
// heavy-tailed (objects up to 40 MB on the media site) and the policy is
// thresholded, so even a tenth of the sessions reseeded moved bytes per
// request by a quarter and byte_miss_ratio by two thirds from seed to
// seed on push-media: wider than any bound a regression could be held to.
const (
	baseSeed     = 1995
	retimeWindow = 15 * time.Minute
)

// warmFraction is the leading share of the trace replayed sequentially on
// trace time to train the engine before the frozen workloads measure.
const warmFraction = 0.3

// sessionRequests is the per-client session length: the client cache is
// purged every sessionRequests requests, as specbench does.
const sessionRequests = 50

// workload is one traffic mix with its stack configuration.
type workload struct {
	name string
	why  string

	profile  string // webgraph profile name
	tinyNet  bool   // netsim.TinyConfig instead of the default topology
	days     int
	sessions float64

	mode        string  // server delivery mode
	prefetch    float64 // client prefetch threshold, 0 = off
	cooperative bool    // clients send Spec-Have digests
	admission   bool    // overload.Controller in front of the server
	wire        bool    // loopback TCP instead of the in-process transport

	// rate > 0 selects the open loop at that many requests per second.
	rate float64
	// online replays the whole trace sequentially against a fresh server
	// per pass with the trace clock advancing, so refreshes fire
	// mid-traffic; the other workloads freeze the model after warm-up.
	online bool

	// minPasses is the fewest passes of the speculative arm a run measures,
	// however short --seconds is.
	minPasses int
}

var workloads = []workload{
	{
		name:    "hybrid-dept",
		why:     "default operating point (department site, hybrid, prefetch>=0.25): per-request overhead dominates, bytes and renders do little",
		profile: "department", days: 30, sessions: 220,
		mode: "hybrid", prefetch: 0.25, minPasses: 5,
	},
	{
		name:    "push-media",
		why:     "media site larger than the 16 MB body LRU, push bundles: bytes, re-renders and multipart copies dominate, header work is diluted",
		profile: "media", tinyNet: true, days: 12, sessions: 110,
		mode: "push", minPasses: 4,
	},
	{
		name:    "coop-wire",
		why:     "cooperative push with admission over loopback TCP, open loop at a fixed rate: only workload where transport, digests and queueing show",
		profile: "department", days: 4, sessions: 220,
		mode: "push", cooperative: true, admission: true, wire: true,
		rate: 4000, minPasses: 16,
	},
	{
		name:    "learn-online",
		why:     "no frozen phase: fresh server per epoch learns while it serves, ~30 refreshes mid-traffic, so per-snapshot precomputation shows as a cost",
		profile: "department", days: 30, sessions: 220,
		mode: "hybrid", prefetch: 0.25, online: true, minPasses: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload to the 60-page test profile: same stack and
// driver, seconds instead of tens of seconds.
func (w workload) tiny() workload {
	w.profile = "tiny"
	w.tinyNet = true
	w.days = 6
	w.sessions = 60
	w.minPasses = 1
	return w
}

// world is the generated input of one run: the site, the request trace,
// and what the output check needs to know about every document.
type world struct {
	site  *webgraph.Site
	scfg  synth.Config
	tr    *trace.Trace
	warmN int // leading requests replayed as warm-up (0 for online)

	// clientOf[i] indexes clients (first-appearance order) for request i.
	clientOf []int32
	clients  []trace.ClientID
	// marker[doc] is the "path=<path>\n" tail of the synthetic body header.
	marker [][]byte
	// digest identifies the generated input: an FNV-1a hash over every
	// request's client, document and time, in replay order.
	digest uint64

	generateS float64
}

// buildWorld generates the site, topology and trace from baseSeed and
// re-times the measured requests from seed.
func buildWorld(w workload, seed int64) (*world, error) {
	start := time.Now()
	profile, err := webgraph.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	net := netsim.DefaultConfig()
	if w.tinyNet {
		net = netsim.TinyConfig()
	}
	root := stats.NewRNG(baseSeed)
	site, err := webgraph.Generate(profile, root.Split("site"))
	if err != nil {
		return nil, fmt.Errorf("generating site: %w", err)
	}
	topo, err := netsim.Generate(net, root.Split("net"))
	if err != nil {
		return nil, fmt.Errorf("generating topology: %w", err)
	}
	scfg := synth.DefaultConfig(site, topo)
	scfg.Days = w.days
	scfg.SessionsPerDay = w.sessions
	res, err := synth.Generate(scfg, root.Split("trace"))
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	wd := &world{site: site, scfg: scfg, tr: res.Trace}

	n := wd.tr.Len()
	if n == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if !w.online {
		wd.warmN = int(warmFraction * float64(n))
	}
	wd.clients = wd.tr.Clients()
	index := make(map[trace.ClientID]int32, len(wd.clients))
	for i, id := range wd.clients {
		index[id] = int32(i)
	}
	// Re-time the measured part: one offset per client, so each client's
	// own order holds and the stable sort only re-interleaves clients.
	rng := stats.NewRNG(seed).Split("retime")
	offset := make([]time.Duration, len(wd.clients))
	for i := range offset {
		offset[i] = time.Duration(rng.Float64() * float64(retimeWindow))
	}
	measured := wd.tr.Requests[wd.warmN:]
	for i := range measured {
		measured[i].Time = measured[i].Time.Add(offset[index[measured[i].Client]])
	}
	sort.SliceStable(measured, func(i, j int) bool { return measured[i].Time.Before(measured[j].Time) })
	wd.tr.Invalidate()

	wd.clientOf = make([]int32, n)
	h := fnv.New64a()
	var word [8]byte
	for i := range wd.tr.Requests {
		r := &wd.tr.Requests[i]
		wd.clientOf[i] = index[r.Client]
		for _, v := range [...]uint64{uint64(wd.clientOf[i]), uint64(r.Doc), uint64(r.Time.UnixNano())} {
			binary.LittleEndian.PutUint64(word[:], v)
			_, _ = h.Write(word[:]) // a hash's Write never fails
		}
	}
	wd.digest = h.Sum64()
	wd.marker = make([][]byte, site.NumDocs())
	for i := range wd.marker {
		wd.marker[i] = []byte("path=" + site.Doc(webgraph.DocID(i)).Path + "\n")
	}
	wd.generateS = time.Since(start).Seconds()
	return wd, nil
}
