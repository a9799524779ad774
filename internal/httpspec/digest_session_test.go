package httpspec_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specweb/internal/httpspec"
	"specweb/internal/loadgen"
	"specweb/internal/stats"
	"specweb/internal/synth"
	"specweb/internal/trace"
)

// TestDigestNamesNothingTheSetLacks is why the server reads no
// cooperative digest: TestReplaySummaryGolden's two drives (hybrid,
// cooperative, prefetching, a session every 20 requests), every request
// checked as it arrives. Each document its Spec-Have digest names is
// already in the set of the session its Spec-Accept states, so the digest
// tells the server nothing the server does not know.
func TestDigestNamesNothingTheSetLacks(t *testing.T) {
	w := httpspec.NewWorld(t, httpspec.ModeHybrid)
	scfg := synth.DefaultConfig(w.Site(), nil)
	scfg.Days = 2
	scfg.SessionsPerDay = 25
	scfg.RemoteClients = 30
	scfg.LocalClients = 5
	res, err := synth.Generate(scfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	eng := w.Server().Engine()
	var digests, named, missing atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if have := r.Header.Get(httpspec.HeaderHave); have != "" {
			digests.Add(1)
			client := trace.ClientID(r.Header.Get(httpspec.HeaderClient))
			token := httpspec.SessionOf(r.Header.Get(httpspec.HeaderAccept))
			for _, path := range strings.Fields(have) {
				named.Add(1)
				if d := w.Site().ByPath(path); d == nil || !eng.Held(client, token, d.ID) {
					missing.Add(1)
					t.Errorf("%s's digest names %s, which its session %x was not sent", client, path, token)
				}
			}
		}
		w.Server().ServeHTTP(rw, r)
	}))
	defer ts.Close()
	cfg := loadgen.Config{
		Trace:              res.Trace,
		BaseURL:            ts.URL,
		Workers:            1,
		Speculate:          true,
		Mode:               httpspec.ModeHybrid,
		Cooperative:        true,
		PrefetchThreshold:  0.3,
		SessionGapRequests: 20,
	}
	driveTrace(t, cfg)
	w.Advance(time.Hour)
	eng.Refresh(w.Clock())
	driveTrace(t, cfg)
	t.Logf("%d requests carried a digest naming %d documents, %d of them not in the session's set", digests.Load(), named.Load(), missing.Load())
	if named.Load() == 0 {
		t.Fatal("no digest was sent")
	}
}
