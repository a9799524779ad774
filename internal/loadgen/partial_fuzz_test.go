package loadgen

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzDecodePartial feeds arbitrary bytes where a coordinator expects two
// workers' specbench-partial/2 bodies. Decoding and merging must never
// panic, and a merge that succeeds must report each count as the exact sum
// of the shards' counts: a negative or wrapping counter is refused, never
// merged.
func FuzzDecodePartial(f *testing.F) {
	cfg := cellConfig(true, false, true)
	cfg.ShardCount = 2
	var seeds [2][]byte
	for i := range seeds {
		c := cfg
		c.ShardIndex = i
		p, err := RunPartial(c, true)
		if err != nil {
			f.Fatal(err)
		}
		if seeds[i], err = json.Marshal(p); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seeds[0], seeds[1])
	f.Add(seeds[1], seeds[0])
	f.Add([]byte(`{"schema":"specbench-partial/2","shard_count":1,"spec":{"stats":{"Fetches":-1}}}`), []byte(`{}`))
	f.Add([]byte(`{"schema":"specbench-partial/2","shard_count":2,"spec":{"errors":9223372036854775807}}`),
		[]byte(`{"schema":"specbench-partial/2","shard_index":1,"shard_count":2,"spec":{"errors":1}}`))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var parts []*Partial
		for _, raw := range [][]byte{a, b} {
			var p Partial
			if json.Unmarshal(raw, &p) != nil {
				return
			}
			parts = append(parts, &p)
			// A one-shard partial merges alone; two more would be refused.
			if p.ShardCount <= 1 {
				break
			}
		}
		rep, err := MergePartials(parts)
		if err != nil {
			return
		}
		check := func(name string, got *Result, arm func(*Partial) *PartialArm) {
			var fetches, errs int64
			for _, p := range parts {
				a := arm(p)
				if a.Stats.Fetches < 0 || a.Errors < 0 ||
					fetches > math.MaxInt64-a.Stats.Fetches || errs > math.MaxInt64-a.Errors {
					t.Fatalf("%s merged a negative or wrapping counter: %+v", name, a)
				}
				fetches += a.Stats.Fetches
				errs += a.Errors
			}
			if got.Counts.Requests != fetches || got.Counts.Errors != errs {
				t.Fatalf("%s merged to requests %d errors %d from shard sums %d, %d",
					name, got.Counts.Requests, got.Counts.Errors, fetches, errs)
			}
		}
		check("spec", rep.Spec, func(p *Partial) *PartialArm { return &p.Spec })
		if rep.Baseline != nil {
			check("baseline", rep.Baseline, func(p *Partial) *PartialArm { return p.Baseline })
		}
	})
}
