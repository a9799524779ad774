//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestQuantileAgainstExact checks the recorder's quantiles against order
// statistics computed independently, over samples split across workers.
func TestQuantileAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 100, 1001, 50000} {
		parts := make([][]int64, workers)
		var all []int64
		for i := 0; i < n; i++ {
			v := int64(math.Exp(rng.NormFloat64()*1.5+11)) + 1 // lognormal around 60 µs, long tail
			parts[i%workers] = append(parts[i%workers], v)
			all = append(all, v)
		}
		merged := sortedMerge(parts...)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			// The exact q-quantile is the smallest sample with at least
			// q*n samples at or below it: check that property directly.
			need := max(int(math.Ceil(q*float64(n)-1e-9)), 1)
			got := quantile(merged, q)
			atOrBelow, below := 0, 0
			for _, x := range all {
				if x <= got {
					atOrBelow++
				}
				if x < got {
					below++
				}
			}
			if atOrBelow < need || below >= need {
				t.Errorf("n=%d q=%g: %d has %d samples below and %d at or below it, the quantile needs rank %d",
					n, q, got, below, atOrBelow, need)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty recorder should read 0")
	}
}

func TestFractile(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0}, {[]float64{3}, 0.5, 3}, {[]float64{4, 1}, 0.5, 2.5}, {[]float64{9, 1, 5}, 0.5, 5},
		{[]float64{3}, 0.25, 3}, {[]float64{4, 1}, 0.25, 1.75},
		{[]float64{50, 10, 40, 20, 30}, 0.25, 20}, // the second of five, not the best
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 0.25, 2.75},
		{[]float64{2, 1}, 0, 1}, {[]float64{2, 1}, 1, 2},
	} {
		if got := fractile(c.in, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("fractile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
	if in := []float64{3, 1, 2}; median(in) != 2 || in[0] != 3 {
		t.Errorf("median sorted its argument or misread it: %v", in)
	}
}

// TestSelfTimes covers nesting, siblings, overlapping children and a
// child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name     string
		spans    []span
		want     []int64
		overlaps bool // siblings overlap, so self times do not sum to the roots
	}{
		{name: "leaf", spans: []span{{Parent: -1, Start: 10, End: 30}}, want: []int64{20}},
		{name: "nested", spans: []span{
			{Parent: -1, Start: 0, End: 100},
			{Parent: 0, Start: 10, End: 90},
			{Parent: 1, Start: 20, End: 50},
		}, want: []int64{20, 50, 30}},
		{name: "siblings", spans: []span{
			{Parent: -1, Start: 0, End: 100},
			{Parent: 0, Start: 10, End: 30},
			{Parent: 0, Start: 40, End: 70},
		}, want: []int64{50, 20, 30}},
		{name: "overlapping children count once", overlaps: true, spans: []span{
			{Parent: -1, Start: 0, End: 100},
			{Parent: 0, Start: 10, End: 60},
			{Parent: 0, Start: 40, End: 80},
			{Parent: 0, Start: 50, End: 55},
		}, want: []int64{30, 50, 40, 5}},
		{name: "child outlives parent", spans: []span{
			{Parent: -1, Start: 0, End: 100},
			{Parent: 0, Start: 20, End: 60},    // round trip
			{Parent: 1, Start: 30, End: 90},    // handler still writing after the headers went out
			{Parent: 2, Start: 70, End: 80},    // entirely after the round trip: clipped away
			{Parent: -1, Start: 200, End: 210}, // unrelated root
		}, want: []int64{60, 10, 30, 0, 10}},
		{name: "children out of start order", spans: []span{
			{Parent: -1, Start: 0, End: 50},
			{Parent: 0, Start: 30, End: 40},
			{Parent: 0, Start: 5, End: 10},
		}, want: []int64{35, 10, 5}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
		}
		var sum, roots int64
		for i, s := range c.spans {
			sum += got[i]
			if s.Parent < 0 {
				roots += s.End - s.Start
			}
		}
		if sum != roots && !c.overlaps {
			t.Errorf("%s: self times sum to %d, roots last %d", c.name, sum, roots)
		}
	}
}

func TestAdoptContent(t *testing.T) {
	spans := []span{
		{Kind: kindServe, Req: 7, Parent: -1, Start: 0, End: 100},      // 0
		{Kind: kindContent, Req: -1, Parent: -1, Start: 10, End: 20},   // 1: only serve 0 is open
		{Kind: kindServe, Req: 8, Parent: -1, Start: 30, End: 120},     // 2
		{Kind: kindContent, Req: -1, Parent: -1, Start: 40, End: 50},   // 3: both open, 2 started last
		{Kind: kindContent, Req: -1, Parent: -1, Start: 105, End: 110}, // 4: only serve 2 is open
		{Kind: kindContent, Req: -1, Parent: -1, Start: 300, End: 310}, // 5: none open
	}
	adoptContent(spans)
	for _, c := range []struct {
		i      int
		parent int32
		req    int32
		guess  bool
	}{{1, 0, 7, false}, {3, 2, 8, true}, {4, 2, 8, false}, {5, -1, -1, false}} {
		s := spans[c.i]
		if s.Parent != c.parent || s.Req != c.req || s.Guess != c.guess {
			t.Errorf("span %d: parent %d req %d guess %v, want %d %d %v", c.i, s.Parent, s.Req, s.Guess, c.parent, c.req, c.guess)
		}
	}
}

func TestSpanBufChunks(t *testing.T) {
	b := newSpanBuf()
	n := 1<<chunkBits + 5 // crosses a chunk boundary
	for i := 0; i < n; i++ {
		b.end(b.begin(kindGet, int32(i), -1))
	}
	got := b.recorded()
	if len(got) != n {
		t.Fatalf("recorded %d spans, want %d", len(got), n)
	}
	for i, s := range got {
		if s.Req != int32(i) || s.End < s.Start {
			t.Fatalf("span %d: %+v", i, s)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest holds BENCHMARK.json, the metric tables and the contract's
// limits together.
func TestManifest(t *testing.T) {
	want, err := json.Marshal(benchmarkManifest())
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading the manifest (regenerate with `go run . -manifest > ../BENCHMARK.json`): %v", err)
	}
	var a, b any
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go and world.go; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("README.md does not document %s %s", kind, n)
		}
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, m := range endToEnd {
		name("end-to-end metric", m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		name("per-layer metric", m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("too many or too few workloads or metrics for the contract")
	}
}

// deterministic is the part of a report that must not depend on timing:
// which input was generated and what the stack counted on it.
func deterministic(t *testing.T, rep *report) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Input      string
		Spec, Base *counts
		Req        int64
	}{rep.InputDigest, rep.Counts, rep.BaselineCounts, rep.RequestsPerPass})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkloadsTiny runs every workload on the tiny profile: every metric
// of the manifest comes out exactly once, same seed gives the same input
// and counts, another seed another input, and the traced segment's self
// times sum to the client.get time.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64, trace int) *report {
				rep, err := runWorkload(w, options{seed: seed, seconds: 0, trace: trace, tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range rep.Checks {
					if raceEnabled && c.Name == "decide_alloc_free" {
						continue
					}
					if !c.OK {
						t.Errorf("seed %d: check %s failed: %s", seed, c.Name, c.Detail)
					}
				}
				if rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("seed %d: attempted=%d failed=%d", seed, rep.Attempted, rep.Failed)
				}
				return rep
			}
			first := run(7, traceBoth)

			line := resultLine(first)
			if got, want := len(line.Metrics), len(endToEnd)+len(perLayer); got != want {
				t.Errorf("%d metrics in the result line, want %d", got, want)
			}
			for _, m := range endToEnd {
				v, ok := first.EndToEnd[m.name]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v); it must be a non-zero number", m.name, v, ok)
				}
			}
			for _, m := range perLayer {
				if v, ok := first.PerLayer[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", m.name, v, ok)
				}
			}
			if len(first.EndToEnd) != len(endToEnd) || len(first.PerLayer) != len(perLayer) {
				t.Errorf("report carries %d+%d metrics, tables name %d+%d",
					len(first.EndToEnd), len(first.PerLayer), len(endToEnd), len(perLayer))
			}

			get := first.Ledger[kindNames[kindGet]]
			var self int64
			for _, k := range first.Ledger {
				self += k.SelfNS
			}
			if get.DurNS == 0 || math.Abs(float64(self)/float64(get.DurNS)-1) > 0.02 {
				t.Errorf("self times sum to %d ns, client.get spans last %d ns", self, get.DurNS)
			}
			// The counts taken beside the spans cover the same pass as the
			// ledger the spans fold into.
			serves := float64(first.Ledger[kindNames[kindServe]].Count)
			for name, kind := range map[string]int{"store.content_calls_per_serve": kindContent, "server.write_calls_per_resp": kindWrite} {
				if got, want := first.PerLayer[name], float64(first.Ledger[kindNames[kind]].Count)/serves; got != want {
					t.Errorf("%s = %v, the ledger has %v %s spans per serve", name, got, want, kindNames[kind])
				}
			}
			if w.online != (first.PerLayer["core.refreshes"] > 0) {
				t.Errorf("core.refreshes = %v in a measured segment, online = %v", first.PerLayer["core.refreshes"], w.online)
			}

			again := run(7, traceOff)
			if a, b := deterministic(t, first), deterministic(t, again); a != b {
				t.Errorf("same seed, different input or counts:\n%s\n%s", a, b)
			}
			other := run(8, traceOff)
			if a, b := deterministic(t, first), deterministic(t, other); a == b {
				t.Errorf("seeds 7 and 8 gave the same input and counts: %s", a)
			}
		})
	}
}
