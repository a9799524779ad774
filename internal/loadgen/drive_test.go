package loadgen

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"specweb/internal/trace"
)

// TestTraceLanesMatchIndexQueues holds the trace-backed source to the
// partition the drive used to build as explicit index tables: worker w's
// measurement queue was the trace indexes in [warmN, n) whose client is
// in the shard and hashes to w, in index order, and the restart harness
// cut each queue in two at a global crash index. The fixture's timestamps
// tie across clients in an order no canonical (time, client) merge would
// produce, so a source that re-merged or re-sorted fails here.
func TestTraceLanesMatchIndexQueues(t *testing.T) {
	at := time.Date(1995, time.June, 1, 9, 0, 0, 0, time.UTC)
	tr := &trace.Trace{}
	ids := []trace.ClientID{"z.remote", "m.local", "a.remote", "q.local", "b.remote", "k.remote", "c.local"}
	for i := 0; i < 140; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Time:   at.Add(time.Duration(i/5) * time.Second), // five-way ties
			Client: ids[(i*3+i/7)%len(ids)],
			Path:   fmt.Sprint(i), // the request's own index
		})
	}
	n := len(tr.Requests)

	for _, tc := range []struct {
		workers, shard, shards, warmN, crash int
	}{
		{1, 0, 1, 0, 70},
		{3, 0, 1, 42, 91},
		{16, 0, 1, 42, 91},
		{3, 0, 3, 42, 91},
		{3, 2, 3, 42, 91},
		{4, 1, 2, 139, 139},
		{2, 0, 1, 140, 140},
	} {
		name := fmt.Sprintf("workers=%d/shard=%d of %d/warm=%d/crash=%d",
			tc.workers, tc.shard, tc.shards, tc.warmN, tc.crash)
		t.Run(name, func(t *testing.T) {
			cfg := Config{Workers: tc.workers, ShardIndex: tc.shard, ShardCount: tc.shards}

			// The deleted construction, verbatim.
			q1 := make([][]string, tc.workers)
			q2 := make([][]string, tc.workers)
			for i := tc.warmN; i < n; i++ {
				id := tr.Requests[i].Client
				if !cfg.inShard(id) {
					continue
				}
				w := workerOf(id, tc.workers)
				if i < tc.crash {
					q1[w] = append(q1[w], tr.Requests[i].Path)
				} else {
					q2[w] = append(q2[w], tr.Requests[i].Path)
				}
			}

			src := traceSource{tr}
			cut := &cutter{cfg: cfg, s: src.All(), seen: make([]int, tc.workers)}
			skips := cut.advance(tc.warmN, nil)
			crash := cut.advance(tc.crash, nil)
			for w := 0; w < tc.workers; w++ {
				l := &lane{
					s:    src.Where(func(id trace.ClientID) bool { return cfg.laneOf(id) == w }),
					from: skips[w],
				}
				drain := func(to int) []string {
					var got []string
					for {
						req, ok := l.next(to)
						if !ok {
							return got
						}
						got = append(got, req.Path)
					}
				}
				if got := drain(crash[w]); !reflect.DeepEqual(got, q1[w]) {
					t.Errorf("worker %d phase 1: lane %v, queue %v", w, got, q1[w])
				}
				if got := drain(toEnd); !reflect.DeepEqual(got, q2[w]) {
					t.Errorf("worker %d phase 2: lane %v, queue %v", w, got, q2[w])
				}
			}
		})
	}
}
