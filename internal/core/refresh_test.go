package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"specweb/internal/obs"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// splitOpenStridesByClient is splitOpenStrides as it stood before the
// stable partition: per-client cuts over ByClient, then a sort of each
// half. Its per-client sequences are the reference; its order between
// clients at equal timestamps followed map iteration and is not.
func splitOpenStridesByClient(buf *trace.Trace, at time.Time, strideTimeout time.Duration) (flush, carry *trace.Trace) {
	flush = &trace.Trace{}
	carry = &trace.Trace{}
	if strideTimeout <= 0 {
		flush.Requests = buf.Requests
		return flush, carry
	}
	for _, reqs := range buf.ByClient() {
		last := reqs[len(reqs)-1].Time
		if at.Sub(last) >= strideTimeout {
			flush.Requests = append(flush.Requests, reqs...)
			continue
		}
		cut := len(reqs) - 1
		for cut > 0 && reqs[cut].Time.Sub(reqs[cut-1].Time) < strideTimeout {
			cut--
		}
		flush.Requests = append(flush.Requests, reqs[:cut]...)
		carry.Requests = append(carry.Requests, reqs[cut:]...)
	}
	flush.SortByTime()
	carry.SortByTime()
	return flush, carry
}

// randomBuffer builds a time-ordered buffer of n requests over a handful
// of clients with gaps that both join and split strides at a 5 s timeout;
// Size numbers the requests so equal-looking ones stay distinguishable.
func randomBuffer(rng *rand.Rand, n int) []trace.Request {
	reqs := make([]trace.Request, 0, n)
	at := t0
	for k := 0; k < n; k++ {
		at = at.Add(time.Duration(rng.Intn(4)) * time.Second) // 0 s gaps give equal timestamps
		reqs = append(reqs, trace.Request{
			Time:   at,
			Client: trace.ClientID(fmt.Sprintf("c%d", rng.Intn(5))),
			Doc:    webgraph.DocID(rng.Intn(9)),
			Size:   int64(k),
		})
	}
	return reqs
}

// The stable partition cuts every client's stream exactly where the
// per-client walk did, at refresh instants before, inside and after the
// buffer, and keeps both halves in the buffer's order.
func TestSplitOpenStridesMatchesPerClientCut(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const timeout = 5 * time.Second
	for round := 0; round < 300; round++ {
		reqs := randomBuffer(rng, rng.Intn(60))
		span := time.Duration(0)
		if len(reqs) > 0 {
			span = reqs[len(reqs)-1].Time.Sub(t0)
		}
		at := t0.Add(time.Duration(rng.Int63n(int64(span+20*time.Second))) - 5*time.Second)
		for _, to := range []time.Duration{timeout, 0} {
			wantFlush, wantCarry := splitOpenStridesByClient(&trace.Trace{Requests: append([]trace.Request(nil), reqs...)}, at, to)
			stale := []trace.Request{{Client: "stale"}} // carry's old contents must not survive
			flush, carry := splitOpenStrides(append([]trace.Request(nil), reqs...), at, to, stale[:0])
			for name, pair := range map[string][2][]trace.Request{
				"flush": {flush, wantFlush.Requests},
				"carry": {carry, wantCarry.Requests},
			} {
				got := (&trace.Trace{Requests: pair[0]}).ByClient()
				want := (&trace.Trace{Requests: pair[1]}).ByClient()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d timeout %v: %s per-client sequences differ:\n got %v\nwant %v", round, to, name, got, want)
				}
				for k := 1; k < len(pair[0]); k++ {
					if pair[0][k].Size < pair[0][k-1].Size {
						t.Fatalf("round %d: %s is not in buffer order at %d", round, name, k)
					}
				}
			}
		}
	}
}

// Two clients' requests at one timestamp used to reach flush and carry in
// map-iteration order; the partition has no map to iterate.
func TestSplitOpenStridesDeterministic(t *testing.T) {
	var reqs []trace.Request
	for k := 0; k < 40; k++ {
		at := t0.Add(time.Duration(k/8) * 2 * time.Second) // eight clients per instant
		reqs = append(reqs, trace.Request{
			Time: at, Client: trace.ClientID(fmt.Sprintf("c%d", k%8)), Doc: webgraph.DocID(k), Size: int64(k),
		})
	}
	at := reqs[len(reqs)-1].Time.Add(time.Second)
	var firstFlush, firstCarry []trace.Request
	for run := 0; run < 50; run++ {
		flush, carry := splitOpenStrides(append([]trace.Request(nil), reqs...), at, 5*time.Second, nil)
		if len(carry) == 0 || len(flush)+len(carry) != len(reqs) {
			t.Fatalf("flush %d + carry %d of %d requests: the open strides were not carried", len(flush), len(carry), len(reqs))
		}
		if run == 0 {
			firstFlush, firstCarry = flush, carry
			continue
		}
		if !reflect.DeepEqual(flush, firstFlush) || !reflect.DeepEqual(carry, firstCarry) {
			t.Fatalf("run %d: flush/carry sequences differ from run 0", run)
		}
	}
}

// A refresh landing between D_i and D_j of one stride must not split the
// pair across buffers: the open stride is carried, and the pair counts
// once — not zero times, not twice — after the next cycle.
func TestRefreshMidStrideKeepsPair(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 1
	cfg.Smoothing = 0
	cfg.DecayPerDay = 1
	e := newTestEngine(t, cfg)
	e.Record("c", 1, t0)
	e.Refresh(t0.Add(time.Second)) // mid-stride: D_2 arrives a second later
	if got := e.Stats().Pairs; got != 0 {
		t.Fatalf("%d pairs published while the stride is still open", got)
	}
	e.Record("c", 2, t0.Add(2*time.Second))
	e.Refresh(t0.Add(time.Hour))
	if p := e.snap.Load().frozen.Get(1, 2); p != 1 {
		t.Errorf("p[1,2] = %v after the stride closed, want 1 (one occurrence, one pair)", p)
	}
	// A further cycle must not count the carried requests again.
	e.Record("c", 1, t0.Add(2*time.Hour))
	e.Refresh(t0.Add(3 * time.Hour))
	if p := e.snap.Load().frozen.Get(1, 2); p != 0.5 {
		t.Errorf("p[1,2] = %v after a second, unfollowed occurrence, want 0.5", p)
	}
}

// Each update cycle leaves one observation per phase it ran, and a cycle
// without a checkpoint store leaves none under "checkpoint".
func TestRefreshPhaseHistogram(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 2
	cfg.Metrics = obs.NewRegistry()
	e := newTestEngine(t, cfg)
	feedPattern(e, 20) // ends with one explicit Refresh
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	refreshes := e.Stats().Refreshes
	for _, phase := range refreshPhaseNames {
		want := refreshes
		if phase == "checkpoint" {
			want = 0
		}
		line := fmt.Sprintf("specweb_engine_refresh_seconds_count{phase=%q} %d\n", phase, want)
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(line))
		}
	}
}
