package httpspec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"specweb/internal/obs"
	"specweb/internal/overload"
)

// TestServerAdmissionSheds holds the single demand slot externally and
// verifies the server answers 503 + Retry-After + X-Specweb-Shed, that
// the speculative client surfaces ErrShed without retrying, and that
// service resumes when the slot frees.
func TestServerAdmissionSheds(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl := overload.NewController(overload.Config{
		DemandSlots: 1, SpecSlots: 1, QueueDepth: -1, Metrics: reg,
	})
	w := newWorldCfg(t, ModePush, func(cfg *ServerConfig) {
		cfg.Metrics = reg
		cfg.Admission = ctrl
	})
	d := &w.site.Docs[0]

	// Saturate the demand class from outside the server.
	release, err := ctrl.Acquire(context.Background(), overload.Demand)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(w.ts.URL, ClientConfig{ID: "shed-me"})
	_, _, err = c.Get(d.Path)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if got := c.Stats().Shed; got != 1 {
		t.Errorf("client shed count = %d, want 1", got)
	}
	resp, err := http.Get(w.ts.URL + d.Path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := resp.Header.Get(HeaderShed); got != "demand" {
		t.Errorf("%s = %q, want demand", HeaderShed, got)
	}
	ost := w.server.OverloadStats()
	if ost.DemandShed < 2 {
		t.Errorf("demand shed = %d, want >= 2", ost.DemandShed)
	}

	// Freeing the slot restores service.
	release()
	if _, _, err := c.Get(d.Path); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestServerDegradationLadder drives the governor (on the test's stepped
// clock) through every rung and asserts the server's behaviour and the
// specweb_overload_* counters at each: rung 1 demotes pushes to hints,
// rung 2 stops speculation, rung 3 sheds low-priority demand, and
// draining restores the baseline knobs.
func TestServerDegradationLadder(t *testing.T) {
	reg := obs.NewRegistry()
	// The governor runs on its own stepped clock, advanced only by the
	// test; the server's real-latency Observe calls land inside the hold
	// window and therefore cannot move the ladder between steps.
	var clkMu sync.Mutex
	now := time.Date(1996, time.February, 26, 9, 0, 0, 0, time.UTC)
	gov := overload.NewGovernor(overload.GovernorConfig{
		Target: 10 * time.Millisecond,
		Alpha:  1, // each sample replaces the EWMA: deterministic steps
		Hold:   time.Second,
		Clock: func() time.Time {
			clkMu.Lock()
			defer clkMu.Unlock()
			return now
		},
		Metrics: reg,
	})
	advanceGov := func(d time.Duration) {
		clkMu.Lock()
		now = now.Add(d)
		clkMu.Unlock()
	}
	w := newWorldCfg(t, ModePush, func(cfg *ServerConfig) {
		cfg.Metrics = reg
		cfg.Governor = gov
	})
	page := pageWithEmbedded(t, w.site)
	w.train(t, page, 10)
	baseTp := w.server.Engine().Tp()

	// get issues one bundle-accepting request from a fresh client and
	// reports the response; fresh clients keep the server's push set
	// identical across rungs.
	seq := 0
	get := func(pth, prio string) *http.Response {
		t.Helper()
		seq++
		req, _ := http.NewRequest(http.MethodGet, w.ts.URL+pth, nil)
		req.Header.Set(HeaderClient, fmt.Sprintf("rung-client-%d", seq))
		req.Header.Set(HeaderAccept, acceptBundle)
		if prio != "" {
			req.Header.Set(HeaderPriority, prio)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp
	}
	isBundle := func(r *http.Response) bool {
		return strings.HasPrefix(r.Header.Get("Content-Type"), "multipart/")
	}
	// climb advances past the hold window and feeds one overloaded
	// sample; the server's own (microsecond) latency observations inside
	// the hold window cannot move the rung in between.
	climb := func(want int) {
		t.Helper()
		advanceGov(2 * time.Second)
		gov.Observe(100 * time.Millisecond)
		if got := gov.Rung(); got != want {
			t.Fatalf("rung = %d, want %d", got, want)
		}
	}
	counter := func(name string) int64 { return reg.Counter(name, "", nil).Value() }

	// Rung 0: trained pushes flow as bundles.
	if r := get(page.Path, ""); !isBundle(r) {
		t.Fatal("rung 0: no bundle despite training")
	}

	// Rung 1 (no_push): pushes demote to prefetch hints.
	climb(overload.RungNoPush)
	r := get(page.Path, "")
	if isBundle(r) {
		t.Error("rung 1: bundle still sent")
	}
	if len(r.Header.Values("Link")) == 0 {
		t.Error("rung 1: suppressed pushes not demoted to hints")
	}
	if got := counter("specweb_overload_pushes_suppressed_total"); got < 1 {
		t.Errorf("pushes_suppressed = %d, want >= 1", got)
	}
	if tp := w.server.Engine().Tp(); tp <= baseTp || tp >= 1 {
		t.Errorf("rung 1 effective Tp = %v, want in (%v, 1)", tp, baseTp)
	}

	// Rung 2 (no_spec): plain responses, no hints, no bundles.
	climb(overload.RungNoSpec)
	r = get(page.Path, "")
	if isBundle(r) || len(r.Header.Values("Link")) > 0 {
		t.Error("rung 2: speculation still visible")
	}
	if got := counter("specweb_overload_embeds_suppressed_total"); got < 1 {
		t.Errorf("embeds_suppressed = %d, want >= 1", got)
	}

	// Rung 3 (shed_demand): low-priority demand is refused, normal
	// priority still served.
	climb(overload.RungShedDemand)
	if r = get(page.Path, "low"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("rung 3: low-priority status = %d, want 503", r.StatusCode)
	} else {
		if r.Header.Get("Retry-After") == "" {
			t.Error("rung 3: shed without Retry-After")
		}
		if r.Header.Get(HeaderShed) != "demand" {
			t.Error("rung 3: shed without marker header")
		}
	}
	if r = get(page.Path, ""); r.StatusCode != http.StatusOK {
		t.Errorf("rung 3: normal-priority status = %d, want 200", r.StatusCode)
	}
	if got := counter("specweb_overload_demand_shed_total"); got < 1 {
		t.Errorf("demand_shed = %d, want >= 1", got)
	}
	if tp := w.server.Engine().Tp(); tp != 1 {
		t.Errorf("top-rung effective Tp = %v, want 1", tp)
	}

	// Drain back to normal: baseline knobs restored, pushes resume.
	for want := overload.RungNoSpec; want >= overload.RungNormal; want-- {
		advanceGov(2 * time.Second)
		gov.Observe(time.Millisecond)
		if got := gov.Rung(); got != want {
			t.Fatalf("draining: rung = %d, want %d", got, want)
		}
	}
	if tp := w.server.Engine().Tp(); tp != baseTp {
		t.Errorf("baseline Tp not restored: %v != %v", tp, baseTp)
	}
	if r = get(page.Path, ""); !isBundle(r) {
		t.Error("after drain: pushes did not resume")
	}

	ost := w.server.OverloadStats()
	if ost.Governor.MaxRungSeen != overload.RungShedDemand {
		t.Errorf("max rung seen = %d, want %d", ost.Governor.MaxRungSeen, overload.RungShedDemand)
	}
	if ost.PushesSuppressed < 1 || ost.EmbedsSuppressed < 1 || ost.DemandShed < 1 {
		t.Errorf("ladder counters = %+v, want every rung engaged", ost)
	}
	if moves := counter("specweb_overload_rung_moves_total"); moves != ost.Governor.Moves {
		t.Errorf("rung_moves_total = %d, governor says %d", moves, ost.Governor.Moves)
	}

	// /spec/stats exposes the overload section for replay scrapes.
	resp, err := http.Get(w.ts.URL + "/spec/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Overload *ServerOverloadStats
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Overload == nil || payload.Overload.Governor.MaxRungSeen != overload.RungShedDemand {
		t.Errorf("stats endpoint overload section = %+v", payload.Overload)
	}
}

// TestStatsOmitOverloadWhenDisabled pins the compatibility contract: a
// server without overload control emits exactly the pre-overload
// /spec/stats shape (no Overload key), before traffic and after it.
func TestStatsOmitOverloadWhenDisabled(t *testing.T) {
	w := newWorld(t, ModePush)
	statsJSON := func() string {
		resp, err := http.Get(w.ts.URL + "/spec/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	if raw := statsJSON(); strings.Contains(raw, "Overload") {
		t.Errorf("stats JSON leaks overload section without overload control: %s", raw)
	}
	for i := 0; i < 8; i++ {
		c := NewClient(w.ts.URL, ClientConfig{ID: fmt.Sprintf("c%d", i%2)})
		if _, _, err := c.Get(w.site.Docs[0].Path); err != nil {
			t.Fatal(err)
		}
	}
	if raw := statsJSON(); strings.Contains(raw, "Overload") {
		t.Errorf("stats JSON grew an overload section under traffic: %s", raw)
	}
}
