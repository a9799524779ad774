package core

import (
	"bytes"
	"testing"
	"time"

	"specweb/internal/checkpoint"
	"specweb/internal/obs"
	"specweb/internal/trace"
	"specweb/internal/webgraph"
)

// FuzzBoundedEstimator drives a memory-bounded engine through
// fuzzer-chosen interleavings of the operations that interact in the
// bounded path: Record (which triggers space-saving evictions), Refresh
// (the bounded estimator's direct freeze, over rows that evictions and
// decay culls come and go from), checkpoint export (version-2 frames) and
// WarmStart (which installs the decoded rows mid-stream while the live
// store carries on). The invariants: no operation panics, the
// eviction ledger in Stats never moves backwards — not even across a warm
// restart — and every exported frame survives Decode → Encode
// byte-identically (the canonical-form contract of the v2 codec).
func FuzzBoundedEstimator(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 1, 2, 3, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 3, 0, 0, 4, 0, 0, 0, 1, 2, 3, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 16))
	f.Add([]byte{255, 255, 4, 4, 4, 3, 3, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := DefaultEngineConfig()
		cfg.Metrics = obs.NewRegistry()
		cfg.MinOccurrences = 1
		// Tiny caps so the fuzzer reaches the eviction branches quickly;
		// the first bytes pick the shape, including decay 1 (counts only
		// grow; rows leave only by eviction) vs < 1 (every count ages and
		// the smallest are culled).
		cfg.MaxRows = 2 + int(data[0]%6)
		cfg.RowTopK = 1 + int(data[1]%4)
		if data[2]%2 == 0 {
			cfg.DecayPerDay = 1
		} else {
			cfg.DecayPerDay = 0.9
		}
		e, err := NewEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}

		at := t0
		var prevRows, prevPairs int64
		checkLedger := func(when string) {
			st := e.Stats().Estimator
			if st == nil {
				return // no refresh published yet
			}
			if st.EvictedRows < prevRows || st.EvictedPairs < prevPairs {
				t.Fatalf("%s: eviction ledger went backwards: rows %d→%d pairs %d→%d",
					when, prevRows, st.EvictedRows, prevPairs, st.EvictedPairs)
			}
			prevRows, prevPairs = st.EvictedRows, st.EvictedPairs
		}

		clients := []trace.ClientID{"a", "b", "c", "d"}
		for p := 3; p+2 < len(data); p += 3 {
			op, x, y := data[p], data[p+1], data[p+2]
			switch op % 6 {
			case 0, 1: // the common case: traffic
				at = at.Add(time.Duration(x%8) * time.Second)
				e.Record(clients[int(x)%len(clients)], webgraph.DocID(y%48), at)
			case 2: // explicit refresh: one direct freeze
				at = at.Add(time.Duration(1+x%4) * time.Hour)
				e.Refresh(at)
				checkLedger("refresh")
			case 3: // checkpoint round trip through the v2 codec
				e.mu.Lock()
				cs := e.exportCheckpointLocked(at)
				e.mu.Unlock()
				if cs.Estimator == nil {
					t.Fatal("bounded engine exported a frame without an estimator section")
				}
				frame, err := checkpoint.Encode(cs)
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				decoded, err := checkpoint.Decode(frame)
				if err != nil {
					t.Fatalf("Decode rejected a frame the engine exported: %v", err)
				}
				again, err := checkpoint.Encode(decoded)
				if err != nil {
					t.Fatalf("re-Encode: %v", err)
				}
				if !bytes.Equal(frame, again) {
					t.Fatalf("v2 frame not canonical: %d bytes in, %d out", len(frame), len(again))
				}
				// Warm-start from the decoded frame mid-stream: the ledger
				// must survive via the frame.
				if err := e.WarmStart(decoded, at); err != nil {
					t.Fatalf("WarmStart: %v", err)
				}
				checkLedger("warm start")
			case 4: // large time jump so auto-refresh paths fire on Record
				at = at.Add(time.Duration(x) * time.Minute)
			case 5: // read path against whatever snapshot is published
				speculate(e, webgraph.DocID(y%48), nil)
			}
		}
		e.Refresh(at.Add(cfg.RefreshEvery))
		checkLedger("final refresh")
	})
}
