package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// exactEngine counts without thresholds, smoothing or decay, so a test reads
// p[i,j] as pairs over occurrences.
func exactEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultEngineConfig()
	cfg.MinOccurrences = 1
	cfg.Smoothing = 0
	cfg.DecayPerDay = 1
	return newTestEngine(t, cfg)
}

func pOf(e *Engine, i, j webgraph.DocID) float64 { return e.snap.Load().frozen.Get(i, j) }

// An offer is not an access: it trains nothing, counts nothing and trips no
// refresh until it is settled as used.
func TestOfferCountsNothingUntilSettled(t *testing.T) {
	e := exactEngine(t)
	e.Record("c", 1, t0)
	e.Offer("c", 2, t0, 600)
	e.Offer("c", 3, t0.Add(48*time.Hour), 300) // two refresh intervals on: a Record here would refresh
	if st := e.Stats(); st.Recorded != 1 || st.OffersOutstanding != 2 || st.Refreshes != 0 {
		t.Fatalf("after one access and two offers: %+v", st)
	}
	e.Refresh(t0.Add(time.Hour))
	if p := pOf(e, 1, 2); p != 0 {
		t.Errorf("p[1,2] = %v from an unsettled offer", p)
	}

	if p, ok := e.Settle("c", 2, true); !ok || p != 600 {
		t.Errorf("Settle = %d, %v; want the offer's 600", p, ok)
	}
	if st := e.Stats(); st.Recorded != 2 || st.OffersOutstanding != 1 {
		t.Errorf("after settling one offer as used: %+v", st)
	}
}

// A used offer is logged at the time of its delivery: the pair i → j counts
// iff the delivery fell inside T_w of i, whenever the report arrives — before
// the stride is folded, or a refresh later while the stride is still carried.
func TestSettledOfferIsRecordedAtDeliveryTime(t *testing.T) {
	for _, tc := range []struct {
		name      string
		delivered time.Duration // after the access to doc 1
		refresh   time.Duration // a refresh between delivery and report; 0 = none
		want      float64
	}{
		{"inside the window", 2 * time.Second, 0, 1},
		{"outside the window", 6 * time.Second, 0, 0},
		{"inside, reported across a refresh", 2 * time.Second, 4 * time.Second, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := exactEngine(t) // T_w and the stride timeout are 5 s
			e.Record("c", 1, t0)
			e.Offer("c", 2, t0.Add(tc.delivered), 500)
			if tc.refresh > 0 {
				e.Refresh(t0.Add(tc.refresh))
			}
			// The report arrives on the client's next fetch, an hour on.
			e.Settle("c", 2, true)
			e.Record("c", 3, t0.Add(time.Hour))
			e.Refresh(t0.Add(2 * time.Hour))
			if p := pOf(e, 1, 2); p != tc.want {
				t.Errorf("p[1,2] = %v, want %v", p, tc.want)
			}
			if p := pOf(e, 2, 3); p != 0 {
				t.Errorf("p[2,3] = %v: the access was logged when it was reported", p)
			}
		})
	}
}

// Unused, expired and never-made offers settle to nothing.
func TestOffersThatSettleToNothing(t *testing.T) {
	e := exactEngine(t)
	e.Record("c", 1, t0)
	e.Offer("c", 2, t0.Add(time.Second), 500)
	e.Offer("c", 3, t0.Add(time.Second), 500)

	if _, ok := e.Settle("c", 2, false); !ok {
		t.Error("unused: the offer was outstanding")
	}
	if _, ok := e.Settle("c", 2, true); ok {
		t.Error("an offer settled twice")
	}
	if _, ok := e.Settle("c", 4, true); ok {
		t.Error("a document never offered settled")
	}
	if _, ok := e.Settle("d", 3, true); ok {
		t.Error("an offer settled for a client it was not made to")
	}
	if st := e.Stats(); st.Recorded != 1 || st.OffersOutstanding != 1 || st.OffersExpired != 0 {
		t.Fatalf("before expiry: %+v", st)
	}

	// One RefreshEvery is how long a report may take: the refresh at
	// exactly that age keeps the offer, the next one drops it.
	e.Refresh(t0.Add(time.Second + 24*time.Hour))
	if st := e.Stats(); st.OffersOutstanding != 1 || st.OffersExpired != 0 {
		t.Fatalf("at one RefreshEvery: %+v", st)
	}
	e.Refresh(t0.Add(2*time.Second + 24*time.Hour))
	if st := e.Stats(); st.OffersOutstanding != 0 || st.OffersExpired != 1 {
		t.Fatalf("past one RefreshEvery: %+v", st)
	}
	if _, ok := e.Settle("c", 3, true); ok {
		t.Error("an expired offer settled")
	}
	e.Refresh(t0.Add(72 * time.Hour))
	if st := e.Stats(); st.Recorded != 1 || pOf(e, 1, 2) != 0 || pOf(e, 1, 3) != 0 {
		t.Errorf("something was learned from offers that came to nothing: %+v", st)
	}
}

// Offering a client the same document again keeps the later offer only.
func TestDoubleOfferKeepsTheLater(t *testing.T) {
	e := exactEngine(t)
	e.Record("c", 1, t0)
	e.Offer("c", 2, t0.Add(time.Second), 400)
	e.Record("c", 3, t0.Add(time.Hour))
	e.Offer("c", 2, t0.Add(time.Hour+time.Second), 700)
	if st := e.Stats(); st.OffersOutstanding != 1 {
		t.Fatalf("two offers of one document to one client: %+v", st)
	}
	if p, ok := e.Settle("c", 2, true); !ok || p != 700 {
		t.Errorf("Settle = %d, %v; want the later offer's 700", p, ok)
	}
	e.Refresh(t0.Add(2 * time.Hour))
	if p13, p32 := pOf(e, 1, 2), pOf(e, 3, 2); p13 != 0 || p32 != 1 {
		t.Errorf("p[1,2] = %v, p[3,2] = %v; want the access logged at the later delivery", p13, p32)
	}
	if st := e.Stats(); st.Recorded != 3 || st.OffersOutstanding != 0 {
		t.Errorf("after the one settle: %+v", st)
	}
}

// Record, Offer, Settle and Refresh from many goroutines (run under -race):
// every offer ends up used, unused, expired or outstanding, exactly once.
func TestOffersConcurrent(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.RecordShards = 4
	e := newTestEngine(t, cfg)
	const workers, rounds, docs = 8, 400, 16
	var wg sync.WaitGroup
	var used, settled [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := trace.ClientID(fmt.Sprintf("c%d", w))
			for i := 0; i < rounds; i++ {
				at := t0.Add(time.Duration(i) * time.Second)
				doc := webgraph.DocID(i % docs)
				e.Record(client, doc, at)
				e.Offer(client, doc+1, at, 500)
				if i%3 != 0 {
					if _, ok := e.Settle(client, doc+1, i%2 == 0); ok {
						settled[w]++
						if i%2 == 0 {
							used[w]++
						}
					}
				}
				if w == 0 && i%50 == 49 {
					e.Refresh(at)
				}
			}
		}(w)
	}
	wg.Wait()
	var wantRecorded, wantSettled int64 = workers * rounds, 0
	for w := range used {
		wantRecorded += used[w]
		wantSettled += settled[w]
	}
	st := e.Stats()
	if st.Recorded != wantRecorded {
		t.Errorf("recorded %d accesses, want %d", st.Recorded, wantRecorded)
	}
	// Offers left unsettled are re-offered (replaced) every docs rounds, so
	// what is outstanding is bounded by clients × documents; none is older
	// than RefreshEvery, so none expired.
	if st.OffersExpired != 0 || st.OffersOutstanding <= 0 || st.OffersOutstanding > workers*(docs+1) {
		t.Errorf("offers outstanding %d, expired %d (%d settled)", st.OffersOutstanding, st.OffersExpired, wantSettled)
	}
	var held int64
	for i := range e.shards {
		held += int64(len(e.shards[i].offers))
	}
	if held != st.OffersOutstanding {
		t.Errorf("Stats reports %d offers outstanding, the shards hold %d", st.OffersOutstanding, held)
	}
}
