// Package loadgen is specweb's deterministic workload generator: it
// drives a real httpspec server (in-process or over the network) with the
// synthetic trace model's session mix, from multiple workers with
// per-worker RNG streams, in open- or closed-loop arrival, and emits a
// machine-readable BENCH report (throughput, log-bucketed latency
// percentiles, error/shed/stale counts, and the paper's four ratios).
//
// Determinism contract: with the default virtual server clock, the same
// Config produces byte-identical deterministic sections (counts and
// count-based ratios) no matter how many workers run or how they
// interleave. The warmup phase replays sequentially on trace time, the
// engine's speculation model is frozen with one explicit Refresh, and the
// measurement phase then reads only that frozen snapshot plus per-client
// caches — every counter is an order-independent sum. Only the wall-clock
// timing section varies between runs.
package loadgen

import (
	"fmt"
	"math"
	"time"
)

// histGrowth is the geometric bucket growth factor: four buckets per
// doubling keeps the relative quantile error under ~9%.
const histGrowth = 4

// histMin and histMax bound the bucketed range; samples outside are
// clamped into the edge buckets (exact min/max/sum are tracked aside).
const (
	histMin = time.Microsecond
	histMax = 10 * time.Minute
)

// Hist is a log-bucketed latency histogram: bucket i covers
// (histMin·2^((i-1)/histGrowth), histMin·2^(i/histGrowth)]. It is not
// goroutine-safe; each worker owns one and they are merged afterwards.
type Hist struct {
	counts []int64
	n      int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// histBuckets is the fixed bucket count for the [histMin, histMax] range.
var histBuckets = int(math.Ceil(math.Log2(float64(histMax)/float64(histMin))*histGrowth)) + 1

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make([]int64, histBuckets)}
}

// bucketOf maps a sample to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= histMin {
		return 0
	}
	i := int(math.Ceil(math.Log2(float64(d)/float64(histMin)) * histGrowth))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// upperOf is the inclusive upper bound of bucket i.
func upperOf(i int) time.Duration {
	return time.Duration(float64(histMin) * math.Pow(2, float64(i)/histGrowth))
}

// satAdd adds two non-negative int64 counters, saturating at MaxInt64
// instead of wrapping. Partition-and-merge must never turn a huge count
// into a negative one, so every count accumulation goes through it.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Observe records one sample.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)] = satAdd(h.counts[bucketOf(d)], 1)
	h.n = satAdd(h.n, 1)
	h.sum = time.Duration(satAdd(int64(h.sum), int64(d)))
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds other into h. The merge is exact: bucket counts, n, sum,
// min, and max of a merged histogram equal those of a histogram that
// observed the concatenated sample stream (saturating at int64 bounds),
// so any partition of observations merges to the same state — the
// property the distributed coordinator relies on.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] = satAdd(h.counts[i], c)
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n = satAdd(h.n, other.n)
	h.sum = time.Duration(satAdd(int64(h.sum), int64(other.sum)))
}

// HistState is the wire form of a histogram for distributed partial
// reports: raw bucket counts plus the exact aggregates, so a coordinator
// can reconstruct and merge worker histograms losslessly.
type HistState struct {
	Counts []int64 `json:"counts"`
	N      int64   `json:"n"`
	SumNS  int64   `json:"sum_ns"`
	MinNS  int64   `json:"min_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// Export snapshots the histogram's full state.
func (h *Hist) Export() HistState {
	return HistState{
		Counts: append([]int64(nil), h.counts...),
		N:      h.n,
		SumNS:  int64(h.sum),
		MinNS:  int64(h.min),
		MaxNS:  int64(h.max),
	}
}

// ImportHist reconstructs a histogram from its wire form. A state with
// more buckets than this build understands is rejected (bucket layout is
// part of the partial-report schema), as is a negative count or duration,
// which no histogram records and Merge's saturating sums do not expect.
func ImportHist(st HistState) (*Hist, error) {
	if len(st.Counts) > histBuckets {
		return nil, fmt.Errorf("loadgen: histogram state has %d buckets, this build has %d",
			len(st.Counts), histBuckets)
	}
	neg := st.N < 0 || st.SumNS < 0 || st.MinNS < 0 || st.MaxNS < 0
	for _, c := range st.Counts {
		neg = neg || c < 0
	}
	if neg {
		return nil, fmt.Errorf("loadgen: histogram state has a negative count or duration")
	}
	h := NewHist()
	copy(h.counts, st.Counts)
	h.n = st.N
	h.sum = time.Duration(st.SumNS)
	h.min = time.Duration(st.MinNS)
	h.max = time.Duration(st.MaxNS)
	return h, nil
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the exact sample mean.
func (h *Hist) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Max returns the exact maximum sample.
func (h *Hist) Max() time.Duration { return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets,
// reporting each bucket's upper bound (so estimates err high, never low,
// by at most one growth step). The exact max caps the top bucket.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// The last bucket holds clamped outliers; its nominal upper
			// bound can sit far below the true maximum. The exact max
			// bounds the estimate in both directions.
			if i == histBuckets-1 {
				return h.max
			}
			u := upperOf(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Buckets returns the non-empty buckets as (upper bound, count) pairs
// for the BENCH report.
func (h *Hist) Buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		out = append(out, HistBucket{
			UpperMS: float64(upperOf(i)) / float64(time.Millisecond),
			Count:   c,
		})
	}
	return out
}

// HistBucket is one non-empty histogram bucket in the report.
type HistBucket struct {
	UpperMS float64 `json:"upper_ms"`
	Count   int64   `json:"count"`
}
